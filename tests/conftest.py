"""Shared corpus: seeded random connected grafts with cached oracle reports.

Several suites (and the acceptance gate) compare the pipeline against the
brute-force oracle on the same instances, so the expensive artifacts are
computed once per session.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import pytest

from connjoin import (Decision, Graft, OracleReport, decide, matching,
                      oracle_report, tjoin)
from connjoin.graph_core import Graph, connected_components
from connjoin.tjoin import validate_graft

CORPUS_SIZE = 500


def random_connected_graft(seed: int) -> Graft:
    """Connected multigraph, n <= 8, m <= 14, terminal count even (rarely 0)."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = [(rng.randrange(v), v) for v in range(1, n)]  # spanning tree
    for _ in range(rng.randint(0, 14 - (n - 1))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    k = 0 if seed % 17 == 0 else 2 * rng.randint(1, n // 2)
    return validate_graft(Graph(n, edges), rng.sample(range(n), k))


def sparse_graft(n: int, k: int, seed: int) -> Graft:
    """Random connected multigraph: a spanning tree plus n extra edges."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    return validate_graft(Graph(n, edges), rng.sample(range(n), k))


def mixed_level_grafts() -> list[tuple[Graft, int]]:
    """(graft, root) pairs whose levels mix the two kinds the sweep tells
    apart: levels with an edge inside and levels without.  A path with
    terminals at its ends puts each spine vertex on a level of its own; an
    odd cycle hung on it meets itself inside the level of its far edge.  A
    grid is bipartite, so none of its levels holds an edge, but a level
    holds several vertices and a component several depth children; the
    chord 3-4 of the 3 x 4 grid closes an odd cycle, and the edge it puts
    inside a level joins two Q components below the root's."""
    out = []
    for length, cycle, at in ((6, 3, 6), (8, 5, 3), (10, 7, 1), (12, 9, 0)):
        ring = [at, *range(length + 1, length + cycle)]
        edges = [(i, i + 1) for i in range(length)]
        edges += [(ring[j - 1], ring[j]) for j in range(cycle)]
        graft = validate_graft(Graph(length + cycle, edges), {0, length})
        out.append((graft, 0))
    for rows, cols, terminals, chords in (
            (3, 4, {0, 11}, []), (4, 5, {0, 7, 12, 19}, []),
            (5, 5, {2, 10, 14, 22}, []), (3, 4, {0, 3, 8, 11}, [(3, 4)])):
        edges = [(r * cols + c, r * cols + c + 1)
                 for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c)
                  for r in range(rows - 1) for c in range(cols)]
        edges += chords
        graft = validate_graft(Graph(rows * cols, edges), terminals)
        out.append((graft, min(terminals)))
    return out


def random_multigraft(seed: int) -> Graft:
    """Multigraph of up to 14 vertices with parallel edges and usually several
    components; per component the terminals are none, all of an even-sized
    one (T = V there), or an even random subset."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if u != v:
            edges += [(u, v)] * rng.choice((1, 1, 2))
    graph = Graph(n, edges)
    terminals: set[int] = set()
    for comp in connected_components(graph):
        comp, mode = sorted(comp), rng.random()
        if mode < 0.25 and len(comp) % 2 == 0:
            terminals |= set(comp)
        elif mode < 0.75:
            terminals |= set(rng.sample(comp, 2 * rng.randint(0, len(comp) // 2)))
    return validate_graft(graph, terminals)


def count_work(monkeypatch):
    """Count hop-table BFS runs and blossom solves from here on; the BFS in
    every ``connjoin`` module that imports it, so none runs uncounted."""
    calls = {"bfs": 0, "solves": 0}
    bfs, solve = tjoin._hop_distances, matching.max_weight_matching

    def counted_bfs(*args, **kwargs):
        calls["bfs"] += 1
        return bfs(*args, **kwargs)

    def counted_solve(*args):
        calls["solves"] += 1
        return solve(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "connjoin" and \
                getattr(module, "_hop_distances", None) is bfs:
            monkeypatch.setattr(module, "_hop_distances", counted_bfs)
    monkeypatch.setattr(matching, "max_weight_matching", counted_solve)
    return calls


@dataclass(frozen=True)
class Case:
    seed: int
    graft: Graft
    oracle: OracleReport
    decision: Decision


@pytest.fixture(scope="session")
def corpus() -> list[Case]:
    cases = []
    for seed in range(CORPUS_SIZE):
        graft = random_connected_graft(seed)
        cases.append(Case(seed, graft, oracle_report(graft), decide(graft)))
    return cases
