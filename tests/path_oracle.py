"""Brute-force circuits, paths and path weights for tests, at enumeration
scale only: every simple circuit or x-y path is listed, so the guard raises
above ``MAX_ENUMERATION_VERTICES`` rather than degrade."""

from __future__ import annotations

from typing import Iterable

from connjoin.distances import UNREACHABLE, f_weight
from connjoin.errors import OracleScaleError
from connjoin.graph_core import Graph
from connjoin.tjoin import Graft

MAX_ENUMERATION_VERTICES = 12


def _guard_vertices(graph: Graph) -> None:
    if graph.n > MAX_ENUMERATION_VERTICES:
        raise OracleScaleError(
            f"enumeration handles at most {MAX_ENUMERATION_VERTICES} "
            f"vertices, got {graph.n}")


def enumerate_circuits(graph: Graph) -> list[frozenset[int]]:
    """All simple circuits as edge sets (vertex-disjoint except the closing
    vertex; a pair of parallel edges is a 2-circuit)."""
    _guard_vertices(graph)
    found: set[frozenset[int]] = set()
    for s in range(graph.n):
        # Walks that never revisit a vertex and only touch vertices >= s,
        # closing back at s: each circuit found at its smallest vertex.
        stack: list[tuple[int, frozenset[int], tuple[int, ...]]] = [
            (s, frozenset([s]), ())]
        while stack:
            v, used_v, edges = stack.pop()
            for u, e in graph.incident(v):
                if u == s and edges and e not in edges:
                    found.add(frozenset(edges + (e,)))
                elif u > s and u not in used_v:
                    stack.append((u, used_v | {u}, edges + (e,)))
    return sorted(found, key=lambda c: (len(c), sorted(c)))


def enumerate_paths(graph: Graph, x: int, y: int) -> list[frozenset[int]]:
    """All simple x-y paths as edge sets; x = y yields one empty path."""
    _guard_vertices(graph)
    if not (0 <= x < graph.n and 0 <= y < graph.n):
        raise OracleScaleError(f"path endpoints ({x}, {y}) out of range")
    if x == y:
        return [frozenset()]
    out: list[frozenset[int]] = []
    stack: list[tuple[int, frozenset[int], tuple[int, ...]]] = [
        (x, frozenset([x]), ())]
    while stack:
        v, used_v, edges = stack.pop()
        for u, e in graph.incident(v):
            if u == y:
                out.append(frozenset(edges + (e,)))
            elif u != x and u not in used_v:
                stack.append((u, used_v | {u}, edges + (e,)))
    return sorted(out, key=lambda p: (len(p), sorted(p)))


def shortest_path_weight_oracle(
    graft: Graft, join: Iterable[int], x: int, y: int,
) -> int | None:
    """Exhaustive reference: minimum join-weight over all simple x-y paths.

    Unlike f_distances this never assumes the join is minimum; it is the
    raw definition, usable only at enumeration scale.
    """
    paths = enumerate_paths(graft.graph, x, y)
    if not paths:
        return UNREACHABLE
    j = frozenset(join)
    return min(f_weight(j, p) for p in paths)
