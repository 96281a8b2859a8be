"""Grafts and minimum T-joins via the classical matching reduction.

A graft pairs a multigraph with a terminal set that has even size in every
connected component.  A join is an edge set whose degree is odd exactly at
the terminals; a minimum one is the symmetric difference of shortest hop
paths along a minimum-cost matching of the terminals.

Each graft solves that matching once, on first use (``Graft.solved``: per
component the hop tables, the optimum under weight -hop with its duals, and
ν).  ``optimum_join`` realizes the optimum's own pairing, for the decision,
distances and verifiers, whose output is join-independent; ``minimum_join``
adds a tie-break solve for the canonical join that commands print.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

from .errors import InternalError, NoJoinError, StructuralInputError
from .graph_core import Contraction, Graph, connected_components, contract
from .matching import DualState, matched_total, perfect_optimum, tight_pairing

__all__ = [
    "Graft",
    "SubGraft",
    "validate_graft",
    "is_join",
    "minimum_join",
    "optimum_join",
    "nu",
    "induced_graft",
    "induced_graft_from_join",
    "contract_graft",
]


@dataclass(frozen=True)
class Graft:
    """A multigraph with a designated terminal set."""

    graph: Graph
    terminals: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        for v in self.terminals:
            if not (0 <= v < self.graph.n):
                raise StructuralInputError(f"terminal {v} is not a vertex")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @cached_property
    def solved(self) -> tuple[TerminalSolve, ...]:
        """The solved terminal matching of each component holding terminals,
        built on first read; ``NoJoinError`` if a component's count is odd."""
        validate_graft(self.graph, self.terminals)
        parts = (sorted(self.terminals & c) for c in connected_components(self.graph))
        return tuple(TerminalSolve.of(p, {s: _hop_distances(self.graph, s) for s in p})
                     for p in parts if p)


@dataclass(frozen=True)
class TerminalSolve:
    """One component's terminal matching, solved (read only): its sorted
    terminals, their hop tables, the hop table by terminal rank (``cost``),
    its minimum-cost perfect matching with vertex and blossom duals, and ν."""

    terminals: tuple[int, ...]
    hop: dict[int, list[int | None]] = field(repr=False)
    cost: list[list[int]] = field(repr=False)
    optimum: DualState = field(repr=False)
    nu: int

    @classmethod
    def of(cls, terminals: Iterable[int], hop: dict) -> TerminalSolve:
        pts = tuple(sorted(terminals))
        cost = [[hop[a][b] for b in pts] for a in pts]
        optimum = perfect_optimum(cost)
        return cls(pts, hop, cost, optimum, matched_total(cost, optimum))


def validate_graft(graph: Graph, terminals: Iterable[int]) -> Graft:
    """Build a graft, insisting every component holds evenly many terminals.

    An odd component makes a join impossible (handshake parity), so the
    offending component is reported by its smallest vertex.
    """
    g = Graft(graph, frozenset(terminals))
    for comp in connected_components(graph):
        if len(g.terminals & comp) % 2 != 0:
            raise NoJoinError(
                f"component containing vertex {min(comp)} has an odd number "
                f"of terminals ({len(g.terminals & comp)})")
    return g


def is_join(graft: Graft, edges: Iterable[int]) -> bool:
    """True iff ``edges`` has odd degree exactly at the terminal vertices."""
    odd: set[int] = set()
    for e in set(edges):
        u, v = graft.graph.endpoints(e)
        odd ^= {u, v}
    return odd == set(graft.terminals)


def _hop_distances(graph: Graph, source: int) -> list[int | None]:
    dist: list[int | None] = [None] * graph.n
    dist[source] = 0
    q = deque([source])
    while q:
        v = q.popleft()
        for u, _ in graph.incident(v):
            if dist[u] is None:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def _shortest_path_edges(
    graph: Graph, dist: list[int | None], a: int, b: int,
) -> frozenset[int]:
    """Edge set of the canonical shortest a–b path, given ``dist``, the hop
    distances from a.

    Walking back from b, each step takes the smallest (vertex, edge) pair
    one BFS layer closer to a, so equal inputs trace equal paths.
    """
    if dist[b] is None:
        raise InternalError(f"no path between matched terminals {a} and {b}")
    path: set[int] = set()
    v = b
    while v != a:
        d = dist[v]
        for u, e in graph.incident(v):  # sorted by (u, e): first hit is minimal
            if dist[u] == d - 1:
                path.add(e)
                v = u
                break
        else:
            raise InternalError("BFS layering broke during path realization")
    return frozenset(path)


def minimum_join(graft: Graft) -> frozenset[int]:
    """The canonical minimum join, which ``solve`` and ``decompose`` print:
    per component the lexicographically smallest optimal terminal pairing
    (``tight_pairing``, a second solve on tight edges), realized as paths."""
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
            result ^= _shortest_path_edges(graft.graph, s.hop[a], a, b)
    if len(result) != nu(graft) or not is_join(graft, result):
        raise InternalError("matching reduction produced a non-minimum join")
    return frozenset(result)


def nu(graft: Graft) -> int:
    """Size of a minimum join."""
    return sum(s.nu for s in graft.solved)


@dataclass(frozen=True)
class SubGraft:
    """An induced sub-graft together with the relabeling maps."""

    graft: Graft
    to_sub_vertex: dict[int, int] = field(repr=False)
    to_parent_vertex: tuple[int, ...] = field(repr=False)
    to_sub_edge: dict[int, int] = field(repr=False)
    to_parent_edge: tuple[int, ...] = field(repr=False)

    def map_vertices(self, vertices: Iterable[int]) -> frozenset[int]:
        return frozenset(self.to_sub_vertex[v] for v in vertices)

    def map_edges(self, edges: Iterable[int]) -> frozenset[int]:
        """Parent edge ids → sub edge ids; edges not inside are dropped."""
        return frozenset(
            self.to_sub_edge[e] for e in edges if e in self.to_sub_edge)

    def unmap_edges(self, edges: Iterable[int]) -> frozenset[int]:
        return frozenset(self.to_parent_edge[e] for e in edges)


def _induced(graph: Graph, vertices: Iterable[int]) -> tuple[Graph, dict, tuple, dict, tuple]:
    inside = sorted(set(vertices))
    for v in inside:
        if not (0 <= v < graph.n):
            raise StructuralInputError(f"vertex {v} is not in the graph")
    vmap = {v: i for i, v in enumerate(inside)}
    eback = sorted({e for v in inside
                    for u, e in graph.incident(v) if u in vmap})
    emap = {e: i for i, e in enumerate(eback)}
    sub_edges = [(vmap[u], vmap[v]) for u, v in map(graph.endpoints, eback)]
    return Graph(len(inside), sub_edges), vmap, tuple(inside), emap, tuple(eback)


def induced_graft(graft: Graft, vertices: Iterable[int]) -> SubGraft:
    """Sub-graft on ``vertices`` keeping the terminals that fall inside."""
    g, vmap, vback, emap, eback = _induced(graft.graph, vertices)
    t = frozenset(vmap[v] for v in graft.terminals if v in vmap)
    return SubGraft(Graft(g, t), vmap, vback, emap, eback)


def induced_graft_from_join(
    graft: Graft, join: Iterable[int], vertices: Iterable[int],
) -> SubGraft:
    """Sub-graft on ``vertices`` whose terminals are the vertices with odd
    degree in the restriction of ``join`` — the terminal set under which the
    restricted join has correct parity."""
    g, vmap, vback, emap, eback = _induced(graft.graph, vertices)
    odd: set[int] = set()
    for e in set(join):
        if e in emap:
            u, v = g.endpoints(emap[e])
            odd ^= {u, v}
    return SubGraft(Graft(g, frozenset(odd)), vmap, vback, emap, eback)


def contract_graft(
    graft: Graft, family: Iterable[Iterable[int]],
) -> tuple[Graft, Contraction]:
    """Contract each family member; a contracted blob is a terminal iff it
    swallowed an odd number of terminals (parity of joins is preserved)."""
    parts = [frozenset(p) for p in family]
    contraction = contract(graft.graph, parts)
    swallowed: set[int] = set()
    new_t: set[int] = set()
    for part in parts:
        blob = contraction.vertex_map[min(part)]
        swallowed.update(part)
        if len(graft.terminals & part) % 2 != 0:
            new_t.add(blob)
    for v in graft.terminals:
        if v not in swallowed:
            new_t.add(contraction.vertex_map[v])
    return Graft(contraction.graph, frozenset(new_t)), contraction
