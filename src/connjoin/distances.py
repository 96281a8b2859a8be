"""Join-induced edge weights and canonical distances from a root.

A minimum join induces the edge weighting +1 off the join, -1 on it.  The
distance from a root to a vertex is the minimum weight of a simple path,
and — because the weighting is conservative exactly when the join is
minimum — this distance is the same for every minimum join of the graft.

Computation avoids negative-weight path search entirely: the distance
equals the drop in minimum-join size when the terminal set is toggled at
the root and the target.  The root component's size is the perfect
matching of its terminals under hop distance that the graft solved once
(``Graft.solved``), its k × k hop table and duals included.  The toggled
sizes at the points t of the odd set T ^ {root} are its near-perfect
matchings, all read off one rooted search (``matching.toggled_sizes``):
the terminals and a root point, a root that is no terminal at the hops of
one search for its own column, a terminal root as a copy of its rank at
hop 0 (hops are metric, so a cheapest matching pairs the two).  At the
component's smallest terminal, the root of the stored solve, they are
stored (``TerminalSolve.sizes``) and no solve runs; at any other root the
search starts from the stored optimum.  Any other x pairs with some t, so
its size is the least size(t) + hop(t, x).  Sizes are 1-Lipschitz in
hop (in the matching that exposes t, re-pair x's mate with t), so one
breadth-first search seeded at every t, at its size, finds them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotMinimumJoinError, StructuralInputError
from .matching import toggled_sizes
from .tjoin import Graft, _hop_distances, is_join, nu

UNREACHABLE = None

__all__ = ["DistanceMap", "UNREACHABLE", "f_weight", "f_distances"]


def f_weight(join: Iterable[int], edges: Iterable[int]) -> int:
    """Total weight of ``edges``: +1 each off the join, -1 each on it."""
    j = frozenset(join)
    return sum(-1 if e in j else 1 for e in set(edges))


@dataclass(frozen=True)
class DistanceMap:
    """Per-vertex distances from ``root``; None marks other components."""

    root: int
    dist: tuple[int | None, ...]

    def __getitem__(self, v: int) -> int | None:
        return self.dist[v]


def f_distances(graft: Graft, join: Iterable[int], root: int) -> DistanceMap:
    """Distances from ``root`` under the weighting of a minimum ``join``.

    dist(root, x) is the change in minimum-join size when the terminal set
    is toggled at root and x; vertices outside the root's component are
    UNREACHABLE.  The join argument is only asserted minimum — the values
    are join-independent.
    """
    graph = graft.graph
    if not (0 <= root < graph.n):
        raise StructuralInputError(f"root {root} is not a vertex")
    join = frozenset(join)
    if not is_join(graft, join):
        raise NotMinimumJoinError("the given edge set is not a join")
    minimum = nu(graft)
    if len(join) != minimum:
        raise NotMinimumJoinError(
            f"join has {len(join)} edges but the minimum is {minimum}")
    return _distances(graft, root)


def _distances(graft: Graft, root: int) -> DistanceMap:
    """The distances stage of ``f_distances``, without its checks: for a
    caller that has proved its own minimum join (the values do not depend
    on which) and holds a vertex ``root``."""
    graph = graft.graph
    solve = next((s for s in graft.solved if root in s.terminals), None)
    if solve:  # a terminal root: a copy of its rank at hop 0
        column = solve.cost[solve.terminals.index(root)]
    elif graft.terminals:  # one search finds the component
        hop = _hop_distances(graph, root, graft.terminals)
        solve = next((s for s in graft.solved
                      if hop[s.terminals[0]] is not None), None)
        column = solve and [hop[p] for p in solve.terminals]
    toggled, base = {root: 0}, 0
    if solve:  # the stored sizes stop before the root point's, nu again
        sizes = (solve.sizes if root == solve.terminals[0] else
                 toggled_sizes(solve.cost, solve.optimum, column))
        toggled, base = dict(zip((*solve.terminals, root), sizes)), solve.nu
    seeds: dict[int, list[int]] = {}
    for t, size in toggled.items():
        seeds.setdefault(size - base, []).append(t)
    dist: list[int | None] = [None] * graph.n
    nbrs = graph.nbrs
    layer, level = [], min(seeds)
    while layer or seeds:  # layer: the candidates for distance ``level``
        if level in seeds:
            layer += seeds.pop(level)
        nxt = []
        # A plain loop per neighbour: a comprehension per vertex costs a
        # frame each on CPython before 3.12.
        for v in layer:
            if dist[v] is None:
                dist[v] = level
                for u in nbrs[v]:
                    if dist[u] is None:
                        nxt.append(u)
        layer, level = nxt, level + 1
    return DistanceMap(root, tuple(dist))
