"""Grafts and minimum T-joins via the classical matching reduction.

A graft pairs a multigraph with a terminal set that has even size in every
connected component.  A join is an edge set whose degree is odd exactly at
the terminals; a minimum one is the symmetric difference of shortest hop
paths along a minimum-cost matching of the terminals.

Each graft finds its components once and solves that matching once, each
on first use.  ``Graft.parts`` holds the sorted terminals of each component
holding any; validation, the solve and the decision's split-T test read it.
``Graft.solved`` holds, per such component, the k × k hop table of its
terminals (from k - 1 stopped searches) and what one near-perfect solve
rooted at a copy of its smallest terminal at hop 0 gives (``rooted_optimum``):
the optimum under weight -4 hop on the terminals with its duals, ν, and the
k sizes that toggling the terminal set at that root and each terminal leaves.
``optimum_join`` realizes the optimum's own pairing, for ``check`` and
``verify``, whose output is join-independent; ``minimum_join`` adds a
tie-break solve for the canonical printed join.  ``_realize`` proves each.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Iterable

from .errors import InternalError, NoJoinError, StructuralInputError
from .graph_core import Graph, connected_components
from .matching import rooted_optimum, tight_pairing

__all__ = [
    "Graft",
    "validate_graft",
    "is_join",
    "minimum_join",
    "optimum_join",
    "nu",
]


@dataclass(frozen=True)
class Graft:
    """A multigraph with a designated terminal set."""

    graph: Graph
    terminals: frozenset[int]

    def __post_init__(self) -> None:
        try:  # an int stays itself and a bool becomes one
            terminals = frozenset(map(operator.index, self.terminals))
        except TypeError:  # named below
            terminals = frozenset(self.terminals)
        object.__setattr__(self, "terminals", terminals)
        for v in terminals:
            if type(v) is not int or not 0 <= v < self.graph.n:
                raise StructuralInputError(f"terminal {v!r} is not a vertex")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @cached_property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        """The sorted terminals of each component holding any, ordered by
        smallest vertex, from one component pass on first read;
        ``NoJoinError`` at the first component holding an odd number."""
        parts = []
        for comp in connected_components(self.graph):
            part = tuple(sorted(self.terminals & comp))
            if len(part) % 2 != 0:
                raise NoJoinError(
                    f"component containing vertex {min(comp)} has an odd "
                    f"number of terminals ({len(part)})")
            if part:
                parts.append(part)
        return tuple(parts)

    @cached_property
    def solved(self) -> tuple[TerminalSolve, ...]:
        """The solved terminal matching of each of ``parts``, on first read."""
        out = []
        for pts in self.parts:
            cost = [[0] * len(pts) for _ in pts]
            for i, a in enumerate(pts[:-1]):
                hop = _hop_distances(self.graph, a, pts[i + 1:])
                for j in range(i + 1, len(pts)):
                    cost[i][j] = cost[j][i] = hop[pts[j]]
            out.append(TerminalSolve.of(pts, cost))
        return tuple(out)


@dataclass(frozen=True)
class TerminalSolve:
    """One component's terminal matching, solved (read only): its terminals
    in rank order, the hop table by rank (``cost``), its minimum-cost perfect
    matching with vertex and blossom duals (``optimum``), ν, and per rank t
    the minimum join size with the terminal set toggled at rank 0 and t
    (``sizes``; ν at rank 0), all from one solve rooted at a copy of rank 0
    at hop 0.  ``sizes`` stops before that root point's own size, ν."""

    terminals: tuple[int, ...]
    cost: list[list[int]] = field(repr=False)
    optimum: Any = field(repr=False)
    nu: int
    sizes: list[int] = field(repr=False)

    @classmethod
    def of(cls, terminals: Iterable[int], cost: list[list[int]]) -> TerminalSolve:
        optimum, sizes = rooted_optimum(cost, cost[0])  # rank 0 at hop 0
        nu = sizes.pop()
        if sizes[0] != nu:
            raise InternalError("the root terminal's size is not ν")
        return cls(tuple(terminals), cost, optimum, nu, sizes)


def validate_graft(graph: Graph, terminals: Iterable[int]) -> Graft:
    """Build a graft, insisting every component holds evenly many terminals.

    An odd component makes a join impossible (handshake parity), so the
    offending component is reported by its smallest vertex.
    """
    g = Graft(graph, frozenset(terminals))
    g.parts  # the component pass, which raises on an odd component
    return g


def _check_edge_ids(graft: Graft, edges: Iterable[int]) -> None:
    """``StructuralInputError`` naming the smallest id in ``edges`` that is
    not an edge of the graft (a negative id would index from the end)."""
    m = graft.m
    bad = min((e for e in edges if not 0 <= e < m), default=None)
    if bad is not None:
        raise StructuralInputError(
            f"edge id {bad} is out of range for {graft.m} edges")


def is_join(graft: Graft, edges: Iterable[int]) -> bool:
    """True iff ``edges`` has odd degree exactly at the terminal vertices;
    ``StructuralInputError`` if an id is not an edge of the graft."""
    edges = set(edges)
    _check_edge_ids(graft, edges)
    ends = graft.graph.edges
    odd = bytearray(graft.n)  # per vertex: terminal bit XOR degree parity
    for v in chain(graft.terminals, *(ends[e] for e in edges)):
        odd[v] ^= 1
    return not any(odd)


def _hop_distances(graph: Graph, source: int,
                   stop: Iterable[int] = ()) -> list[int | None]:
    """Hop distances from ``source``, None off its component.  Given ``stop``,
    it returns once all of ``stop`` is labelled: every vertex nearer than its
    farthest one then has its final layer, so paths back stay canonical."""
    dist: list[int | None] = [None] * graph.n
    dist[source] = 0
    order = [source]
    left = set(stop) - {source}
    nbrs = graph.nbrs
    for v in order:  # grows while it is read
        d = dist[v] + 1
        for u in nbrs[v]:
            if dist[u] is None:
                dist[u] = d
                order.append(u)
                if u in left:
                    left.remove(u)
                    if not left:
                        return dist
    return dist


def _shortest_path_edges(
    graph: Graph, dist: list[int | None], a: int, b: int,
) -> frozenset[int]:
    """Edge set of the canonical shortest a–b path, given ``dist``, the hop
    distances from a.

    Walking back from b, each step takes the least vertex one BFS layer
    closer to a, by its least edge, so equal inputs trace equal paths.
    """
    if dist[b] is None:
        raise InternalError(f"no path between matched terminals {a} and {b}")
    nbrs, eids, n = graph.nbrs, graph.eids, graph.n
    path: list[int] = []
    v = b
    while v != a:
        d, w = dist[v] - 1, n
        for u in nbrs[v]:
            if u < w and dist[u] == d:
                w = u
        if w == n:
            raise InternalError("BFS layering broke during path realization")
        path.append(eids[v][nbrs[v].index(w)])
        v = w
    return frozenset(path)


def minimum_join(graft: Graft) -> frozenset[int]:
    """The canonical minimum join, which ``solve`` and ``decompose`` print:
    per component the lexicographically smallest optimal terminal pairing
    (``tight_pairing``, a tie-break solve), realized as paths."""
    return _realize(graft, lambda s: tight_pairing(s.cost, s.optimum))


def optimum_join(graft: Graft) -> frozenset[int]:
    """A minimum join realizing each component's stored optimum's own pairing,
    with no tie-break solve: fixed for a fixed input, but not under vertex or
    edge reordering.  For callers whose output is the same for every join."""
    return _realize(graft, lambda s: [
        (i, j) for i, j in enumerate(s.optimum.mate) if i < j])


def _realize(graft: Graft, pairing: Callable) -> frozenset[int]:
    """XOR of the canonical shortest paths between the rank pairs of each
    component's ``pairing(solve)``: a join of at most ν edges, so minimum."""
    result: set[int] = set()
    for s in graft.solved:
        for i, j in pairing(s):
            a, b = s.terminals[i], s.terminals[j]
            hop = _hop_distances(graft.graph, a, (b,))
            result ^= _shortest_path_edges(graft.graph, hop, a, b)
    if len(result) != nu(graft) or not is_join(graft, result):
        raise InternalError("matching reduction produced a non-minimum join")
    return frozenset(result)


def nu(graft: Graft) -> int:
    """Size of a minimum join."""
    return sum(s.nu for s in graft.solved)
