"""Multigraph core: immutable graphs with dense integer vertex and edge ids.

Vertices are ``0 .. n-1``.  Edges are identified by their position in the
edge sequence, so parallel edges are distinct objects.  Loops are stripped
silently at construction; ``loops_stripped`` counts them.
"""

from __future__ import annotations

from typing import Iterable

from .errors import StructuralInputError

VertexId = int
EdgeId = int


class Graph:
    """An immutable undirected multigraph."""

    __slots__ = ("n", "edges", "loops_stripped", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise StructuralInputError(f"vertex count must be >= 0, got {n}")
        kept: list[tuple[int, int]] = []
        loops = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise StructuralInputError(
                    f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                loops += 1
                continue
            kept.append((u, v))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(kept)
        self.loops_stripped = loops
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        # Sorted incidence lists make every traversal in the package
        # deterministic without per-call sorting.
        self._adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(sorted(a)) for a in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: EdgeId) -> tuple[int, int]:
        return self.edges[e]

    def incident(self, v: VertexId) -> tuple[tuple[int, int], ...]:
        """Pairs ``(neighbor, edge_id)`` sorted by (neighbor, edge_id)."""
        return self._adj[v]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def connected_components(
    graph: Graph,
    vertex_set: Iterable[int] | None = None,
    removed_edges: Iterable[int] | None = None,
) -> tuple[frozenset[int], ...]:
    """Components of the subgraph induced on ``vertex_set`` (default: all
    vertices) after deleting ``removed_edges``, ordered by smallest member."""
    if vertex_set is None:
        inside = [True] * graph.n
        verts: Iterable[int] = range(graph.n)
    else:
        inside = [False] * graph.n
        verts = sorted(set(vertex_set))
        for v in verts:
            if not (0 <= v < graph.n):
                raise StructuralInputError(f"vertex {v} out of range")
            inside[v] = True
    removed = frozenset(removed_edges) if removed_edges is not None else frozenset()
    seen = [False] * graph.n
    out: list[frozenset[int]] = []
    for s in verts:
        if seen[s] or not inside[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = [s]
        while stack:
            u = stack.pop()
            for w, e in graph.incident(u):
                if inside[w] and not seen[w] and e not in removed:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return tuple(out)


def is_stable_dominating(graph: Graph, teeth: frozenset[int]) -> bool:
    """True iff no edge joins two of ``teeth`` (vertices of ``graph``) and
    every other vertex has a neighbour among them."""
    seen: set[int] = set()
    for b in teeth:
        for u, _ in graph.incident(b):
            if u in teeth:
                return False
            seen.add(u)
    return len(seen) == graph.n - len(teeth)
