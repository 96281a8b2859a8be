"""Multigraph core: immutable graphs with dense integer vertex and edge ids.

Vertices are ``0 .. n-1``.  Edges are identified by their position in the
edge sequence, so parallel edges are distinct objects.  A loop is a
``StructuralInputError``: it is never part of a join, and dropping it would
renumber every later edge.

Each vertex's incidences are stored as two aligned flat tuples in edge id
order: ``nbrs[v]`` holds the neighbours, a parallel edge's repeated, and
``eids[v]`` the matching edge ids.  Traversals read them directly;
``incident`` pairs them up, sorted by (neighbour, edge id).
"""

from __future__ import annotations

from typing import Iterable

from .errors import StructuralInputError

VertexId = int
EdgeId = int


class Graph:
    """An immutable undirected multigraph whose edges are int pairs."""

    __slots__ = ("n", "edges", "nbrs", "eids")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise StructuralInputError(f"vertex count must be >= 0, got {n}")
        self.n = n
        edges = tuple(edges)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        eids: list[list[int]] = [[] for _ in range(n)]
        # One pass lists each edge at both ends, so every list is in edge id
        # order.  An endpoint that is not an int fails as a list index.
        try:
            pairs = tuple(map(tuple, edges))  # a tuple maps to itself
            for e, (u, v) in enumerate(pairs):
                if not (0 <= u < n and 0 <= v < n):
                    raise StructuralInputError(
                        f"edge ({u}, {v}) out of range for {n} vertices")
                if u == v:
                    raise StructuralInputError(f"edge {e} ({u}, {v}) is a loop")
                nbrs[u].append(v)
                eids[u].append(e)
                nbrs[v].append(u)
                eids[v].append(e)
        except StructuralInputError:
            raise
        except (TypeError, ValueError):  # some edge is no pair of ints
            e = next(e for e, pair in enumerate(edges) if type(pair) not in
                     (tuple, list) or list(map(type, pair)) != [int, int])
            raise StructuralInputError(
                f"edge {e} {edges[e]!r} is not a pair of int vertices") from None
        self.edges: tuple[tuple[int, int], ...] = pairs
        self.nbrs: tuple[tuple[int, ...], ...] = tuple(map(tuple, nbrs))
        self.eids: tuple[tuple[int, ...], ...] = tuple(map(tuple, eids))

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: EdgeId) -> tuple[int, int]:
        return self.edges[e]

    def incident(self, v: VertexId) -> tuple[tuple[int, int], ...]:
        """Pairs ``(neighbor, edge_id)`` sorted by (neighbor, edge_id)."""
        return tuple(sorted(zip(self.nbrs[v], self.eids[v])))

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
