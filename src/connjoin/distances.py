"""Join-induced edge weights and canonical distances from a root.

A minimum join induces the edge weighting +1 off the join, -1 on it.  The
distance from a root to a vertex is the minimum weight of a simple path,
and — because the weighting is conservative exactly when the join is
minimum — this distance is the same for every minimum join of the graft.

Computation avoids negative-weight path search entirely: the distance
equals the drop in minimum-join size when the terminal set is toggled at
the root and the target.  Toggled sizes come from one matching solve per
terminal (pairing the target with each terminal in turn is exact, since a
perfect matching on S + {x} must match x to someone and the rest optimally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InternalError, NotMinimumJoinError, StructuralInputError
from .graph_core import Graph, connected_components
from .matching import min_weight_perfect_matching_value
from .tjoin import Graft, _hop_distances, _nu_component_value, is_join

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

    def reachable(self) -> frozenset[int]:
        return frozenset(v for v, d in enumerate(self.dist) if d is not None)

    def interval(self) -> range:
        """The contiguous range of attained distance values (contains 0)."""
        vals = [d for d in self.dist if d is not None]
        lo, hi = min(vals), max(vals)
        if set(vals) != set(range(lo, hi + 1)) or not lo <= 0 <= hi:
            raise InternalError(
                "distance values must form a contiguous range around 0")
        return range(lo, hi + 1)

    def level_sets(self) -> dict[int, frozenset[int]]:
        out: dict[int, set[int]] = {}
        for v, d in enumerate(self.dist):
            if d is not None:
                out.setdefault(d, set()).add(v)
        return {i: frozenset(s) for i, s in out.items()}


def _assert_minimum(graft: Graft, join: Iterable[int]) -> frozenset[int]:
    j = frozenset(join)
    if not is_join(graft, j):
        raise NotMinimumJoinError("the given edge set is not a join")
    total = 0
    for comp in connected_components(graft.graph):
        total += _nu_component_value(graft.graph, sorted(graft.terminals & comp))
    if len(j) != total:
        raise NotMinimumJoinError(
            f"join has {len(j)} edges but the minimum is {total}")
    return j


def f_distances(graft: Graft, join: Iterable[int], root: int) -> DistanceMap:
    """Distances from ``root`` under the weighting of a minimum ``join``.

    dist(root, x) is the change in minimum-join size when the terminal set
    is toggled at root and x; vertices outside the root's component are
    UNREACHABLE.  The join argument is only asserted minimum — the values
    are join-independent.
    """
    if not (0 <= root < graft.graph.n):
        raise StructuralInputError(f"root {root} is not a vertex")
    _assert_minimum(graft, join)
    graph = graft.graph
    comp = next(c for c in connected_components(graph) if root in c)
    base = _nu_component_value(graph, sorted(graft.terminals & comp))
    toggled = sorted((graft.terminals & comp) ^ {root})
    hop = {t: _hop_distances(graph, t) for t in toggled}
    nu_without = {
        t: _nu_component_value_given(graph, [s for s in toggled if s != t], hop)
        for t in toggled}

    dist: list[int | None] = [None] * graph.n
    dist[root] = 0
    for x in comp:
        if x == root:
            continue
        if x in nu_without:
            toggled_size = nu_without[x]
        else:
            # x joins the toggled terminals; it must pair with one of them.
            toggled_size = min(
                hop[t][x] + nu_without[t] for t in toggled)
        dist[x] = toggled_size - base
    return DistanceMap(root, tuple(dist))


def _nu_component_value_given(
    graph: Graph, pts: list[int], hop: dict[int, list[int | None]],
) -> int:
    def weight(a: int, b: int) -> int:
        d = hop[a][b]
        if d is None:
            raise StructuralInputError("terminals span components")
        return d

    return min_weight_perfect_matching_value(pts, weight)
