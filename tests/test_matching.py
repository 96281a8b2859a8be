"""Matching layer: the blossom solver against brute force and the subset DP,
cold and warm-started, perfect and near-perfect."""

import copy
import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connjoin import decide, matching
from connjoin.errors import InternalError, OracleScaleError, StructuralInputError
from connjoin.matching import (DualState, greedy_start, is_factor_critical,
                               matched_total, max_weight_matching,
                               min_weight_perfect_matching,
                               min_weight_perfect_matching_value,
                               rooted_optimum, tight_pairing, toggled_sizes,
                               verify_optimum)
from connjoin.graph_core import Graph
from connjoin.tjoin import (TerminalSolve, _hop_distances,
                            _shortest_path_edges, minimum_join, validate_graft)

from conftest import sparse_graft
from matching_oracle import (min_weight_perfect_matching_dp,
                             min_weight_perfect_matching_encoded,
                             perfect_optimum, verify_optimum_by_chains)


def brute_max_perfect_matching_value(n, weighted_edges):
    """The heaviest perfect matching's weight, or None when there is none."""
    best = None
    for combo in itertools.combinations(weighted_edges, n // 2):
        used = [v for u, w, _ in combo for v in (u, w)]
        if len(set(used)) == len(used):
            total = sum(wt for _, _, wt in combo)
            best = total if best is None else max(best, total)
    return best


def zero_duals(n):
    return DualState([-1] * n, [0] * n)


def feasible_start(n, weighted_edges):
    """Nothing matched, every vertex dual at the heaviest weight (at least 0):
    each slack is then nonnegative, in the solver's doubled units."""
    top = max([0] + [w for _, _, w in weighted_edges])
    return DualState([-1] * n, [top] * n)


def mate_value(mate, weighted_edges):
    total = 0
    for u, v, wt in weighted_edges:
        if mate[u] == v:
            total += wt
    return total


def test_k4_golden():
    edges = [(0, 1, 3), (1, 2, 5), (2, 3, 3), (0, 3, 5), (0, 2, 4), (1, 3, 4)]
    state = feasible_start(4, edges)
    assert max_weight_matching(4, edges, state) == [3, 2, 1, 0]
    assert state.mate == [3, 2, 1, 0]


def test_single_edge():
    for w in (7, 0, -3):  # a perfect solve takes the edge at any weight
        edges = [(0, 1, w)]
        assert max_weight_matching(2, edges, feasible_start(2, edges)) == [1, 0]
    with pytest.raises(InternalError, match="no perfect matching"):
        max_weight_matching(2, [], zero_duals(2))


@given(st.integers(1, 3), st.data())
@settings(max_examples=150)
def test_blossom_matches_brute_force(half, data):
    n = 2 * half
    pool = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(-9, 9)), max_size=12))
    weighted = [(u, v, w) for (u, v), w in edges]
    best = brute_max_perfect_matching_value(n, weighted)
    if best is None:
        with pytest.raises(InternalError, match="no perfect matching"):
            max_weight_matching(n, weighted, feasible_start(n, weighted))
        return
    mate = max_weight_matching(n, weighted, feasible_start(n, weighted))
    assert all(mate[p] == v for v, p in enumerate(mate))
    # each matched pair realizes some input edge's weight; the solver keeps
    # the max-weight copy among parallels, so compare totals via brute force
    assert mate_value(mate, [max(g, key=lambda t: t[2]) for _, g in
                             itertools.groupby(sorted(weighted), key=lambda t: t[:2])]
                      ) == best


def test_min_perfect_golden():
    pairs = min_weight_perfect_matching([3, 1, 4, 8], lambda a, b: abs(a - b))
    assert pairs == [(1, 3), (4, 8)]
    assert min_weight_perfect_matching_value(
        [3, 1, 4, 8], lambda a, b: abs(a - b)) == 6


def test_min_perfect_on_no_points():
    # No rank 0 to copy as the root point: no pairs, at no cost.
    assert min_weight_perfect_matching([], lambda a, b: 1) == []
    assert min_weight_perfect_matching_value([], lambda a, b: 1) == 0


def test_min_perfect_rejects_bad_input():
    with pytest.raises(StructuralInputError):
        min_weight_perfect_matching([1, 2, 3], lambda a, b: 1)
    with pytest.raises(StructuralInputError):
        min_weight_perfect_matching([1, 1], lambda a, b: 1)
    with pytest.raises(StructuralInputError):
        min_weight_perfect_matching([1, 2], lambda a, b: -1)
    for bad in (float("nan"), float("inf"), None):  # int() would raise
        with pytest.raises(StructuralInputError, match="nonnegative integers"):
            min_weight_perfect_matching([0, 1], lambda a, b: bad)
    with pytest.raises(OracleScaleError):
        min_weight_perfect_matching_dp(list(range(18)), lambda a, b: 1)


@given(st.integers(1, 4), st.data())
@settings(max_examples=150)
def test_min_perfect_agrees_with_dp(half, data):
    k = 2 * half
    points = list(range(k))
    table = {}
    for a in range(k):
        for b in range(a + 1, k):
            table[a, b] = data.draw(st.integers(0, 9))

    def weight(a, b):
        return table[min(a, b), max(a, b)]

    total, pairs = min_weight_perfect_matching_dp(points, weight)
    assert min_weight_perfect_matching_value(points, weight) == total
    # identical lexicographic tie-break on both routes
    assert min_weight_perfect_matching(points, weight) == pairs
    assert sorted(v for p in pairs for v in p) == points


@given(st.integers(1, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_tight_tie_break_equals_reference(half, data):
    # Weights 0..3 on up to 16 points leave many optimal matchings to choose
    # between; the tight-edge tie-break must pick the reference's.
    k = 2 * half
    table = {(a, b): data.draw(st.integers(0, 3))
             for a in range(k) for b in range(a + 1, k)}

    def weight(a, b):
        return table[min(a, b), max(a, b)]

    pairs = min_weight_perfect_matching(range(k), weight)
    assert pairs == min_weight_perfect_matching_encoded(range(k), weight)
    assert sum(weight(a, b) for a, b in pairs) == \
        min_weight_perfect_matching_value(range(k), weight)


# Solved from zero duals under weight -4 cost (the units of
# ``rooted_optimum``), this table's optimum has the positive blossom
# {0, 2, 3}.  Its tight edges hold the perfect matching 01 24 35,
# lexicographically first but of cost 4 > 3 = nu: it crosses the blossom
# three times.  A tie-break that dropped the primary cost would return it.
# The greedy start of ``rooted_optimum`` reaches an optimum without that
# blossom, so the trap state is built by an explicit cold solve.
BLOSSOM_TRAP = [[0, 2, 0, 1, 2, 3], [2, 0, 2, 3, 3, 0], [0, 2, 0, 1, 2, 3],
                [1, 3, 1, 0, 3, 0], [2, 3, 2, 3, 0, 3], [3, 0, 3, 0, 3, 0]]


def test_tie_break_keeps_primary_cost_across_positive_blossom():
    optimum = zero_duals(6)
    max_weight_matching(6, [(i, j, -4 * BLOSSOM_TRAP[i][j])
                            for i in range(6) for j in range(i + 1, 6)], optimum)
    assert ([0, 2, 3], 4) in [(sorted(b), z) for b, z in optimum.blossoms]
    y, blossom = optimum.dual, {0, 2, 3}
    trap = [(0, 1), (2, 4), (3, 5)]
    assert all(y[a] + y[b] + 8 * BLOSSOM_TRAP[a][b]
               + 8 * ({a, b} <= blossom) == 0 for a, b in trap)
    assert sum(BLOSSOM_TRAP[a][b] for a, b in trap) == 4
    assert matched_total(BLOSSOM_TRAP, optimum) == 3

    def weight(a, b):
        return BLOSSOM_TRAP[a][b]

    total, pairs = min_weight_perfect_matching_dp(range(6), weight)
    assert total == 3
    assert tight_pairing(BLOSSOM_TRAP, optimum) == pairs
    assert min_weight_perfect_matching(range(6), weight) == pairs


def assert_base_solve_agrees_with_dp(cost):
    optimum = perfect_optimum(cost)
    total, pairs = min_weight_perfect_matching_dp(
        range(len(cost)), lambda a, b: cost[a][b])
    assert matched_total(cost, optimum) == total
    assert tight_pairing(cost, optimum) == pairs


def test_greedy_start_on_an_all_equal_table_matches_every_point():
    cost = [[0 if i == j else 5 for j in range(8)] for i in range(8)]
    start = greedy_start(cost)
    assert start == DualState([1, 0, 3, 2, 5, 4, 7, 6], [-20] * 8)
    assert perfect_optimum(cost) == start  # the solve only verifies
    assert_base_solve_agrees_with_dp(cost)


def test_greedy_start_on_a_nearest_neighbour_chain_matches_one_pair():
    # Points on a line with halving gaps: each point's nearest neighbour is
    # the next one, which is not mutual but for the closest pair (4, 5).
    # Some pair is always matched: the cheapest of the table is mutual.
    x = [0, 32, 48, 56, 60, 62]
    cost = [[abs(a - b) for b in x] for a in x]
    start = greedy_start(cost)
    assert start == DualState([-1, -1, -1, -1, 5, 4],
                              [-128, -64, -32, -16, -8, -8])
    assert_base_solve_agrees_with_dp(cost)


@given(st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_warm_base_solve_agrees_with_dp_on_ties(half, data):
    # Costs 0..2 leave many nearest neighbours tied, so the greedy pass
    # chooses among them and the optimum among many optimal matchings.
    k = 2 * half
    cost = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            cost[a][b] = cost[b][a] = data.draw(st.integers(0, 2))
    # the solver rejects an infeasible or non-tight start
    assert_base_solve_agrees_with_dp(cost)


def test_minimum_join_equals_reference_pairing_above_oracle_reach():
    for k in (20, 28, 34, 40, 48):
        graft = sparse_graft(300, k, k)
        pts = sorted(graft.terminals)
        hop = {s: _hop_distances(graft.graph, s) for s in pts}
        join = set()
        for a, b in min_weight_perfect_matching_encoded(
                pts, lambda a, b: hop[a][b]):
            join ^= _shortest_path_edges(graft.graph, hop[a], a, b)
        assert minimum_join(graft) == join


def rooted_dp_sizes(cost, column):
    """Per rank of ``cost`` and a root point, rank k, at costs ``column``:
    the cheapest perfect matching of the other points, by the subset DP."""
    k = len(cost)
    table = [[*row, c] for row, c in zip(cost, column)] + [[*column, 0]]
    return [min_weight_perfect_matching_dp(
        [p for p in range(k + 1) if p != t], lambda a, b: table[a][b])[0]
        for t in range(k + 1)]


@given(st.integers(1, 6), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_warm_toggles_agree_with_dp(half, root_is_terminal, data):
    # Terminals 0..k-1 and the root point k: a copy of terminal k - 1 at
    # hop 0, or a point that is no terminal.  From the stored optimum the
    # search gives each point's cheapest perfect matching of the others.
    # These tables are not metric, so a copy's sizes are no toggles here.
    k = 2 * half
    n = k + 1
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            table[a][b] = table[b][a] = data.draw(st.integers(0, 9))
    cost = [row[:k] for row in table[:k]]
    column = cost[k - 1] if root_is_terminal else table[k][:k]

    solve = TerminalSolve.of(range(k), cost)
    assert solve.nu == min_weight_perfect_matching_dp(
        range(k), lambda a, b: table[a][b])[0]
    assert toggled_sizes(cost, solve.optimum, column) == \
        rooted_dp_sizes(cost, column)


def test_stored_optimum_starts_the_toggle_search_as_it_is():
    # Costs 0..3 build positive blossoms in many base optima.  Folded into
    # the vertex duals they leave every dual even, so the optimum is a
    # near-perfect start with exposed duals of one parity, unchanged, at a
    # copy of a terminal or at a point that is no terminal.
    rng = random.Random(15)
    blossoms = 0
    for _ in range(200):
        k = 2 * rng.randint(1, 5)
        table = [[0] * (k + 1) for _ in range(k + 1)]
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                table[a][b] = table[b][a] = rng.randint(0, 3)
        cost = [row[:k] for row in table[:k]]
        for optimum in (perfect_optimum(cost),
                        TerminalSolve.of(range(k), cost).optimum):
            blossoms += any(z for _, z in optimum.blossoms)
            folded = list(optimum.dual)
            for leaves, z in optimum.blossoms:
                for v in leaves:
                    folded[v] += z
            assert all(d % 2 == 0 for d in folded)
            for column in (cost[0], cost[k - 1], table[k][:k]):
                assert toggled_sizes(cost, optimum, column) == \
                    rooted_dp_sizes(cost, column)
    assert blossoms > 0


@given(st.integers(1, 6), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_rooted_solve_agrees_with_dp(half, root_is_terminal, data):
    # Terminals 0..k-1 and the root point k: a copy of terminal 0 at hop 0,
    # or a point that is no terminal.  Each point's size is the cheapest
    # perfect matching of the others; the stored mates pair the terminals
    # among themselves, exposing only the root point, at its size, and only
    # blossoms with a positive dual are kept.
    k = 2 * half
    table = [[0] * (k + 1) for _ in range(k + 1)]
    for a in range(k + 1):
        for b in range(a + 1, k + 1):
            table[a][b] = table[b][a] = data.draw(st.integers(0, 9))
    if root_is_terminal:
        for a in range(k):
            table[a][k] = table[k][a] = table[0][a]
    cost = [row[:k] for row in table[:k]]
    optimum, sizes = rooted_optimum(cost, table[k][:k])
    assert sizes == [min_weight_perfect_matching_dp(
        [p for p in range(k + 1) if p != t], lambda a, b: table[a][b])[0]
        for t in range(k + 1)]
    assert len(optimum.dual) == k
    assert all(0 <= m < k and optimum.mate[m] == a
               for a, m in enumerate(optimum.mate))
    assert all(k not in leaves and z > 0 for leaves, z in optimum.blossoms)
    assert matched_total(cost, optimum) == sizes[k]


@given(st.integers(0, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_near_perfect_mode_reads_every_toggle_off_its_duals(half, data):
    # An odd point count from zero duals under weight -cost: the end state's
    # duals give each cheapest matching exposing t, in solver units
    # (doubled) as (d_t - sum of d - sum of z (|B| - 1)) / 2.
    n = 2 * half + 1
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            table[a][b] = table[b][a] = data.draw(st.integers(0, 9))

    def weight(a, b):
        return table[a][b]

    state = zero_duals(n)
    mate = max_weight_matching(n, [(a, b, -table[a][b]) for a in range(n)
                                   for b in range(a + 1, n)], state)
    # Dual feasibility and z >= 0, recomputed from the returned state alone.
    assert all(z >= 0 for _, z in state.blossoms)
    for a in range(n):
        for b in range(a + 1, n):
            inside = sum(2 * z for leaves, z in state.blossoms
                         if a in leaves and b in leaves)
            assert state.dual[a] + state.dual[b] + inside >= -2 * table[a][b]
    spent = sum(state.dual) + sum(z * (len(leaves) - 1)
                                  for leaves, z in state.blossoms)
    costs = {}
    for t in range(n):
        assert (state.dual[t] - spent) % 2 == 0
        costs[t] = (state.dual[t] - spent) // 2
        assert costs[t] == min_weight_perfect_matching_dp(
            [p for p in range(n) if p != t], weight)[0]
    assert state.spans()  # as on every complete graph
    exposed = [v for v, p in enumerate(mate) if p == -1]
    assert len(exposed) == 1
    assert sum(table[a][b] for a, b in enumerate(mate) if a < b) == \
        costs[exposed[0]]


@pytest.mark.parametrize("n, edges", [
    (3, [(0, 1)]),
    (5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
])
def test_near_perfect_mode_needs_a_spanning_blossom(n, edges):
    # A near-perfect matching exists, but no blossom can span the points, so
    # the graph is not factor-critical and the duals certify no toggle.
    assert is_factor_critical(Graph(n, edges)) is False
    state = zero_duals(n)
    max_weight_matching(n, [(u, v, 0) for u, v in edges], state)
    assert state.mate.count(-1) == 1
    assert not state.spans()


# Weights of a maximum-weight perfect matching on 4 vertices, and a start
# with 0-1 matched and tight, 2 and 3 exposed with duals of unequal parity.
# Their S-S slack is odd, so the halved delta would round and leave a
# matched edge with nonzero slack; doubling weights and duals avoids it.
ODD_SLACK_WEIGHTS = {(0, 1): -1, (0, 2): -4, (0, 3): -3, (1, 2): -3,
                     (1, 3): -6, (2, 3): -6}
ODD_SLACK_DUALS = [-2, 0, 0, -1]


def test_warm_start_odd_slack_regression():
    def solve(scale):
        edges = [(a, b, scale * w) for (a, b), w in ODD_SLACK_WEIGHTS.items()]
        start = DualState([1, 0, -1, -1], [scale * y for y in ODD_SLACK_DUALS])
        return max_weight_matching(4, edges, start)

    with pytest.raises(InternalError, match="parity"):
        solve(1)
    pairs = [(a, b) for a, b in enumerate(solve(2)) if a < b]
    total, best = min_weight_perfect_matching_dp(
        range(4), lambda a, b: -ODD_SLACK_WEIGHTS[min(a, b), max(a, b)])
    assert pairs == best == [(0, 3), (1, 2)]
    assert -sum(ODD_SLACK_WEIGHTS[p] for p in pairs) == total == 6


def test_warm_start_rejects_bad_starts():
    edges = [(a, b, w) for (a, b), w in ODD_SLACK_WEIGHTS.items()]
    feasible = [-2, 0, 0, 0]  # 0-1 tight, every slack nonnegative
    max_weight_matching(4, edges, DualState([1, 0, -1, -1], list(feasible)))
    bad = [  # (start, the InternalError it raises)
        (DualState([1, 0, -1, -1], [-2, 0, -8, 0]), "not feasible"),
        (DualState([1, 0, -1, -1], [-1, 0, 0, 0]), "tight edges"),
        (DualState([1, 2, -1, -1], list(feasible)), "tight edges"),
        (DualState([-1] * 4, [8] * 4, [([0, 1, 2], 1)]), "no blossoms"),
    ]
    for start, reason in bad:
        with pytest.raises(InternalError, match=reason):
            max_weight_matching(4, edges, start)
    for weight in (float("nan"), float("inf"), None):  # int() would raise
        with pytest.raises(StructuralInputError, match="must be integers"):
            max_weight_matching(4, [*edges, (2, 3, weight)],
                                DualState([1, 0, -1, -1], list(feasible)))


def finished_states(monkeypatch, rng):
    """Copies of the arguments of every end-of-solve certificate run by the
    base solves, toggle searches, tie-breaks and factor-criticality
    searches on random 0-3 tables and sparse graphs."""
    states = []

    def capture(*args):
        states.append(copy.deepcopy(args))
        return verify_optimum(*args)

    monkeypatch.setattr(matching, "verify_optimum", capture)
    for _ in range(60):
        k = 2 * rng.randint(1, 7)
        table = [[0] * (k + 1) for _ in range(k + 1)]
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                table[a][b] = table[b][a] = rng.randint(0, 3)
        cost = [row[:k] for row in table[:k]]
        optimum = perfect_optimum(cost)
        tight_pairing(cost, optimum)
        toggled_sizes(cost, optimum, cost[0])
        toggled_sizes(cost, optimum, table[k][:k])
        n = 2 * rng.randint(1, 7) + 1
        is_factor_critical(Graph(n, [tuple(rng.sample(range(n), 2))
                                     for _ in range(2 * n)]))
    monkeypatch.undo()
    return states


def verdict(certificate, state):
    try:
        certificate(*state)
    except InternalError as exc:
        return str(exc)
    return None


def test_certificate_agrees_with_the_chain_walk_on_mutated_states(monkeypatch):
    # Mutations: one vertex dual lowered by one, one blossom dual raised by
    # one, the partners of two matched pairs swapped.  The certificate that
    # checks each pair at its lowest common blossom must give the chain
    # walk's verdict on each; each kind must be caught somewhere.
    rng = random.Random(16)
    states = finished_states(monkeypatch, rng)
    assert any(len(blossomdual) > 2 for _, _, _, _, blossomdual, *_ in states)
    caught = {"dual": 0, "blossom": 0, "swap": 0}
    for state in states:
        assert verdict(verify_optimum, state) is None
        assert verdict(verify_optimum_by_chains, state) is None
        for kind in caught:
            bad = copy.deepcopy(state)
            _, dual, mate, _, blossomdual, *_ = bad
            matched = [v for v, m in enumerate(mate) if m != -1]
            if kind == "dual":
                dual[rng.randrange(len(dual))] -= 1
            elif kind == "blossom" and blossomdual:
                blossomdual[rng.choice(list(blossomdual))] += 1
            elif kind == "swap" and len(matched) >= 4:
                a, c = rng.sample(matched, 2)
                b, d = mate[a], mate[c]
                if c == b:
                    continue
                mate[a], mate[d], mate[c], mate[b] = d, a, b, c
            else:
                continue
            seen = verdict(verify_optimum, bad)
            assert seen == verdict(verify_optimum_by_chains, bad)
            caught[kind] += seen is not None
    assert all(caught.values()), caught


def golden_tables(rng):
    """(k + 1)-point hop tables, the last point a root that is no terminal:
    0-3 tables (ties everywhere) and sparse-graft tables."""
    tables = []
    for _ in range(300):
        k = 2 * rng.randint(1, 7)
        table = [[0] * (k + 1) for _ in range(k + 1)]
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                table[a][b] = table[b][a] = rng.randint(0, 3)
        tables.append(table)
    for k in (4, 10, 16, 20, 26, 34, 40, 48):
        graft = sparse_graft(3 * k, k, k)
        pts = sorted(graft.terminals)
        pts.append(min(set(range(3 * k)) - graft.terminals))  # the root
        tables.append([[_hop_distances(graft.graph, a)[b] for b in pts]
                       for a in pts])
    return tables


def even_golden_solves(rng):
    """Base optima and their tie-breaks on the golden tables."""
    for table in golden_tables(rng):
        k = len(table) - 1
        cost = [row[:k] for row in table[:k]]
        tight_pairing(cost, perfect_optimum(cost))


def odd_golden_solves(rng):
    """On the golden tables the stored rooted solve and, from its optimum,
    the toggle searches at another terminal root and at the root that is no
    terminal; then factor-criticality searches on odd sparse graphs."""
    for table in golden_tables(rng):
        k = len(table) - 1
        cost = [row[:k] for row in table[:k]]
        optimum = TerminalSolve.of(range(k), cost).optimum
        toggled_sizes(cost, optimum, cost[k - 1])
        toggled_sizes(cost, optimum, table[k][:k])
    for _ in range(150):
        n = 2 * rng.randint(1, 10) + 1
        is_factor_critical(Graph(n, [tuple(rng.sample(range(n), 2))
                                     for _ in range(rng.randint(n, 3 * n))]))


def solves_digest(monkeypatch, solves):
    """sha256 over repr((mate, dual, blossoms)) of every solve that
    ``solves(random.Random(21))`` runs, leaf order included, and its count;
    a solver change that resolves any tie differently, or lists a blossom's
    leaves or the blossoms in another order, moves it."""
    digest, count = hashlib.sha256(), [0]
    solve = matching.max_weight_matching

    def recorded(n, edges, state):
        mate = solve(n, edges, state)
        digest.update(repr((state.mate, state.dual, state.blossoms)).encode())
        count[0] += 1
        return mate

    monkeypatch.setattr(matching, "max_weight_matching", recorded)
    solves(random.Random(21))
    return digest.hexdigest(), count[0]


def test_even_solves_match_the_golden_digest(monkeypatch):
    # Recorded before the near-perfect search learned to rebase its
    # spanning blossom, which no perfect solve reaches.
    assert solves_digest(monkeypatch, even_golden_solves) == (
        "e5d11188473c477b2b1cdf23e23db32e"
        "dc6043ff76fb748ea0d49c5832b88fb5", 2 * 308)


def test_odd_solves_match_the_golden_digest(monkeypatch):
    # A terminal root's toggle search solves k + 1 points, its copy at hop 0.
    assert solves_digest(monkeypatch, odd_golden_solves) == (
        "edfacd0398523b0ae39f85733f8ce433"
        "c56d14d9a889a0dfd9ac21b4773dfe76", 3 * 308 + 150)


def test_deep_blossoms_need_no_recursion():
    # A spanning tree plus 3n random edges with T = V: the toggle search
    # augments through blossoms nested about 120 deep, so a solver that
    # recursed once per nesting level would exhaust this limit.
    n, rng = 400, random.Random(1)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(3 * n)]
    graft = validate_graft(Graph(n, edges), range(n))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        decision = decide(graft)
    finally:
        sys.setrecursionlimit(limit)
    assert decision.answer is False
