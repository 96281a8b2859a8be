"""Multigraph core: immutable graphs with dense integer vertex and edge ids.

Vertices are ``0 .. n-1``.  Edges are identified by their position in the
edge sequence, so parallel edges are distinct objects.  A loop is a
``StructuralInputError``: it is never part of a join, and dropping it would
renumber every later edge.

Each vertex's incidences are stored as two aligned flat tuples, sorted by
(neighbour, edge id): ``nbrs[v]`` holds the neighbours, a parallel edge's
repeated, and ``eids[v]`` the matching edge ids.  Traversals read them
directly; ``incident`` pairs them up for callers that want pairs.
"""

from __future__ import annotations

from typing import Iterable

from .errors import StructuralInputError

VertexId = int
EdgeId = int


class Graph:
    """An immutable undirected multigraph."""

    __slots__ = ("n", "edges", "nbrs", "eids")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise StructuralInputError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        # Sorted incidence lists make every traversal in the package
        # deterministic without per-call sorting.  A bucket pass sorts them
        # all: listing each vertex v's incidences (u, e) in edge order and
        # appending (v, e) to u's lists, v ascending, sorts u's lists by
        # (neighbour, edge id).  The first pass checks each edge as it
        # lists it.
        inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise StructuralInputError(
                    f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise StructuralInputError(f"edge {e} ({u}, {v}) is a loop")
            inc[u].append((v, e))
            inc[v].append((u, e))
        nbrs: list[list[int]] = [[] for _ in range(n)]
        eids: list[list[int]] = [[] for _ in range(n)]
        for v, pairs in enumerate(inc):
            for u, e in pairs:
                nbrs[u].append(v)
                eids[u].append(e)
        self.nbrs: tuple[tuple[int, ...], ...] = tuple(map(tuple, nbrs))
        self.eids: tuple[tuple[int, ...], ...] = tuple(map(tuple, eids))

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: EdgeId) -> tuple[int, int]:
        return self.edges[e]

    def incident(self, v: VertexId) -> tuple[tuple[int, int], ...]:
        """Pairs ``(neighbor, edge_id)`` sorted by (neighbor, edge_id)."""
        return tuple(zip(self.nbrs[v], self.eids[v]))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def connected_components(graph: Graph) -> tuple[frozenset[int], ...]:
    """The components of ``graph``, ordered by smallest member."""
    seen = [False] * graph.n
    out: list[frozenset[int]] = []
    for s in range(graph.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:  # grows while it is read
            for w in graph.nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        out.append(frozenset(comp))
    return tuple(out)


def is_stable_dominating(graph: Graph, teeth: frozenset[int]) -> bool:
    """True iff no edge joins two of ``teeth`` (vertices of ``graph``) and
    every other vertex has a neighbour among them."""
    seen: set[int] = set()
    for b in teeth:
        for u in graph.nbrs[b]:
            if u in teeth:
                return False
            seen.add(u)
    return len(seen) == graph.n - len(teeth)
