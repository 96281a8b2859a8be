"""Exhaustive ground truth on small instances.

Every claim the fast pipeline makes is checkable here by brute force:
``oracle_report`` enumerates all joins of a graft (the set of joins is one
base join XORed with the cycle space, so enumeration walks 2^dim cycle
combinations, never more than the 2^m edge subsets), finds the minimum
size, and tests each minimum join for connectivity.

Size guards raise rather than degrade: an oracle that silently samples
would be worthless as a referee.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, OracleScaleError
from .graph_core import Graph, connected_components
from .tjoin import Graft, is_join

MAX_ORACLE_EDGES = 20

__all__ = [
    "OracleReport",
    "oracle_report",
    "all_joins",
    "MAX_ORACLE_EDGES",
]


@dataclass(frozen=True)
class OracleReport:
    nu: int
    min_joins: tuple[frozenset[int], ...]
    has_connected: bool
    coverable: frozenset[int]


def _spanning_forest(graph: Graph) -> tuple[list[int | None], list[int | None], list[int]]:
    """DFS forest: per-vertex parent edge/vertex, plus the non-tree edges."""
    parent_edge: list[int | None] = [None] * graph.n
    parent_vertex: list[int | None] = [None] * graph.n
    seen = [False] * graph.n
    tree_edges: set[int] = set()
    for s in range(graph.n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for u, e in graph.incident(v):
                if not seen[u]:
                    seen[u] = True
                    parent_edge[u] = e
                    parent_vertex[u] = v
                    tree_edges.add(e)
                    stack.append(u)
    non_tree = [e for e in range(graph.m) if e not in tree_edges]
    return parent_edge, parent_vertex, non_tree


def _tree_path(parent_edge, parent_vertex, a: int, b: int) -> set[int]:
    """Edge set of the forest path a-b (XOR of the two root paths)."""
    path: set[int] = set()
    for v in (a, b):
        while parent_edge[v] is not None:
            path ^= {parent_edge[v]}
            v = parent_vertex[v]
    return path


def _base_join(graft: Graft) -> frozenset[int]:
    """Some join, built greedily along a spanning forest (independent of the
    matching reduction on purpose)."""
    parent_edge, parent_vertex, _ = _spanning_forest(graft.graph)
    result: set[int] = set()
    for comp in connected_components(graft.graph):
        pts = sorted(graft.terminals & comp)
        if len(pts) % 2 != 0:
            raise InternalError("odd terminal component reached the oracle")
        for a, b in zip(pts[0::2], pts[1::2]):
            result ^= _tree_path(parent_edge, parent_vertex, a, b)
    return frozenset(result)


def all_joins(graft: Graft) -> list[frozenset[int]]:
    """Every join of the graft, deterministically ordered.

    Joins form a coset of the cycle space, so the base join is XORed with
    each combination of the m - n + c fundamental cycles; m is hard-capped.
    """
    graph = graft.graph
    m = graph.m
    if m > MAX_ORACLE_EDGES:
        raise OracleScaleError(
            f"oracle handles at most {MAX_ORACLE_EDGES} edges, got {m}")
    dim = m - graph.n + len(connected_components(graph))
    parent_edge, parent_vertex, non_tree = _spanning_forest(graph)
    if len(non_tree) != dim:
        raise InternalError("cycle-space dimension miscount")
    cycles: list[frozenset[int]] = []
    for e in non_tree:
        u, v = graph.endpoints(e)
        cycles.append(frozenset(
            _tree_path(parent_edge, parent_vertex, u, v) ^ {e}))
    base = _base_join(graft)
    out: list[frozenset[int]] = []
    for mask in range(1 << dim):
        j = set(base)
        for i in range(dim):
            if mask >> i & 1:
                j ^= cycles[i]
        out.append(frozenset(j))
    for j in out:
        if not is_join(graft, j):
            raise InternalError("oracle produced a non-join")
    out.sort(key=lambda j: (len(j), sorted(j)))
    return out


def _covers_connected(graph: Graph, join: frozenset[int]) -> frozenset[int] | None:
    """Vertices covered by ``join`` if its induced subgraph is connected,
    else None.  The empty join counts as not connected."""
    if not join:
        return None
    covered: set[int] = set()
    for e in join:
        covered.update(graph.endpoints(e))
    start = min(covered)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u, e in graph.incident(v):
            if e in join and u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(covered) if seen == covered else None


def oracle_report(graft: Graft) -> OracleReport:
    joins = all_joins(graft)
    if not joins:
        raise InternalError("a valid graft always has at least one join")
    best = min(len(j) for j in joins)
    min_joins = tuple(j for j in joins if len(j) == best)
    coverable: set[int] = set()
    for j in min_joins:
        covered = _covers_connected(graft.graph, j)
        if covered is not None:
            coverable |= covered
    return OracleReport(
        nu=best,
        min_joins=min_joins,
        has_connected=bool(coverable),
        coverable=frozenset(coverable),
    )
