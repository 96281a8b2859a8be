"""Distance decomposition: levels, layer and Q components, beams, roots.

Vertices are stratified by their distance from the root.  For each level i,
the subgraph on vertices at distance <= i splits into *layer components*;
deferring the edges internal to level i splits them further into
*Q components*.  Every component not containing the root is left by exactly
one join edge (its *beam*), whose inner endpoint (the component's *join
root*) sits on the component's top level.

The components form a laminar merge forest, built in two stages.  The
sweep stage (``_sweep``) is one upward union-find sweep over the levels,
which one pass over the distances buckets into ascending vertex lists.
Each step of the sweep makes one component per group, found through one
array indexed by group root, into flat columns by build index: level, layer
flag, top level, smallest vertex, parent, and the Q and depth children.
The same stage records each vertex's own-level Q component (``home``),
marks the caps, finds every component's leaving join edges (``_leaving``:
a join edge leaves exactly the components below its ends' lowest common
one, so beams take one pass over the join) and raises on any beam that
breaks the theorem.  Its ``MergeForest`` is all the decision reads:
eligibility, head sets and construction use only relative ids, so
``decide`` runs this stage alone.  The numbering stage (``_number``) turns
the forest into the ``DistanceDecomposition`` with one sort, by (level,
smallest vertex, layer before Q), reading the forest's columns in id order:
top levels become frozensets and child lists ascending id tuples.
``distance_decomposition`` runs both stages, for ``decompose``'s JSON and
for the verifier, whose reports name components by id.  Only top levels are
stored, at most 2n vertex references in all; a component's full vertex set
is one walk down ``d_children`` (``_d_set``) on each read and is never
stored.  The build costs O(n + m) beside the union-find and the sort, where
storing every vertex set would cost n per level.

``verify_decomposition`` re-derives the structural claims — beam counts,
minimality and distance projection of the restricted join, factor-critical
level contractions carrying a near-perfect matching, and strong-comb depth
contractions — and reports violations instead of trusting the
construction.  It reads the same merge forest: the build's climb gives
every component's leaving join edges.  The three checks of a non-cap layer
component with one Q component are proved bottom-up where the
decomposition allows it: the cuts of the components below pack as many odd
cuts as the restricted join has edges, and a search over the top level
passes through children already proved (``_restriction_closes``).  The
same packing and routes prove its level contraction factor-critical and
its Q component's depth contraction a strong comb.  Only where that proof
does not close does the verifier build the component's grafts and solve
them.  Every graft the verifier checks comes from one routine,
``_contraction``, under a vertex map: the induced sub-graft under its rank
map, a level contraction from the component's top level alone (its Q
components meet only through edges inside that level) and a depth
contraction from the top level plus one blob per depth child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (InternalError, NoJoinError, StructuralInputError,
                     TheoremViolationError)
from .graph_core import Graph, is_stable_dominating
from .distances import DistanceMap, f_distances
from .matching import is_factor_critical
from .tjoin import Graft, _check_edge_ids, is_join, nu, optimum_join

__all__ = [
    "DistanceDecomposition",
    "MergeForest",
    "DecompositionReport",
    "Violation",
    "distance_decomposition",
    "verify_decomposition",
    "is_factor_critical",
    "is_strong_comb",
]

LAYER = "layer"
Q = "q"


@dataclass(slots=True)
class _Component:
    """One id's vertex set, walked down ``d_children`` on each read."""

    id: int
    _forest: tuple = field(repr=False, compare=False)  # (a_set, d_children)

    @property
    def vertices(self) -> frozenset[int]:
        a_set, d_children = self._forest
        return a_set[self.id] | _d_set(a_set, d_children, self.id)


@dataclass(frozen=True)
class DistanceDecomposition:
    """The components as columns indexed by id."""

    root: int
    distance_map: DistanceMap
    interval: range
    initial_id: int
    level: tuple[int, ...]
    is_layer: tuple[bool, ...]  # a layer component, else a Q component
    a_set: tuple[frozenset[int], ...]  # vertices exactly at `level`
    is_cap: tuple[bool, ...]  # contains the decomposition root
    beam: tuple[int | None, ...]  # the one join edge leaving a non-cap one
    f_root: tuple[int | None, ...]  # the beam's endpoint inside
    q_children: tuple[tuple[int, ...], ...]  # same-level Q components (layer)
    d_children: tuple[tuple[int, ...], ...]  # layer components one level down
    parent: tuple[int | None, ...]  # one step up the sweep

    @cached_property
    def components(self) -> tuple[_Component, ...]:
        """One vertex view per id, built on first read."""
        forest = self.a_set, self.d_children  # columns, not self: no cycle
        return tuple([_Component(cid, forest) for cid in range(len(self.level))])

    def to_json(self) -> dict:
        comps = []
        for cid, top in enumerate(self.a_set):
            # one walk serves both vertex lists
            below = _d_set(self.a_set, self.d_children, cid)
            comps.append({
                "id": cid, "level": self.level[cid],
                "kind": LAYER if self.is_layer[cid] else Q,
                "is_cap": self.is_cap[cid], "beam": self.beam[cid],
                "f_root": self.f_root[cid], "vertices": sorted(top | below),
                "a_set": sorted(top), "d_set": sorted(below),
                "q_children": list(self.q_children[cid]),
                "d_children": list(self.d_children[cid])})
        return {"root": self.root, "interval": list(self.interval),
                "components": comps}


def _d_set(a_set: Sequence[frozenset[int]],
           d_children: Sequence[tuple[int, ...]], cid: int) -> frozenset[int]:
    """The vertices strictly below component ``cid``'s level: its depth
    descendants' top levels, walked down ``d_children`` without recursion."""
    below: set[int] = set()
    todo = list(d_children[cid])
    while todo:
        d = todo.pop()
        below |= a_set[d]
        todo += d_children[d]
    return frozenset(below)


def _leaving(graph: Graph, join: Iterable[int], home: Sequence[int | None],
             parent: Sequence[int | None], rank: Sequence[int],
             ) -> list[list[tuple[int, int]]]:
    """The join edges leaving each component, as (edge, inner end), indexed
    like ``parent`` and ``rank`` (by id, or by build index in the sweep).
    A rank grows strictly from each component to its parent: the sweep
    passes its build indices, the verifier 2·level, plus 1 on a layer
    component.

    An edge leaves exactly the components below its ends' lowest common
    one, so one climb from the ends' own-level Q components (``home``, by
    vertex) finds them all: the lower-ranked end is never that component.  An end off the root's component (None) never
    climbs, so the edge leaves every component holding the other, caps
    included."""
    leaving: list[list[tuple[int, int]]] = [[] for _ in parent]
    for e in join:
        u, v = graph.endpoints(e)
        a, b = home[u], home[v]
        while a != b:
            ra = math.inf if a is None else rank[a]
            rb = math.inf if b is None else rank[b]
            if ra <= rb:
                leaving[a].append((e, u))
                a = parent[a]
            if rb <= ra:
                leaving[b].append((e, v))
                b = parent[b]
    return leaving


@dataclass(frozen=True)
class MergeForest:
    """The components as the sweep builds them: columns by build index,
    under the names of ``DistanceDecomposition``'s columns by id.

    Build indices run up the sweep, one step at a time (a level's Q
    components, then its layer components), so a parent's index exceeds
    its children's.  Top levels are the sweep's ascending lists.  Child
    lists ascend by build index, except the depth children of a layer
    component with several Q components, which follow those Q components
    in turn.  ``is_eligible``, ``head_set`` and ``construct_join`` read
    only relative ids, so they take a forest as it is; ``_number`` turns it
    into the decomposition."""

    root: int
    distance_map: DistanceMap
    interval: range
    initial_id: int
    level: list[int]
    is_layer: list[bool]
    a_set: list[list[int]]
    low: list[int]  # smallest vertex
    is_cap: list[bool]
    beam: list[int | None]
    f_root: list[int | None]
    q_children: list[Sequence[int]]
    d_children: list[list[int]]
    parent: list[int | None]


def _id_key(level: Sequence[int], low: Sequence[int], is_layer: Sequence[bool]):
    """The sort key of build indices that gives their ids: (level,
    smallest vertex, layer before Q)."""
    return lambda x: (level[x], low[x], not is_layer[x])


def _sweep(graft: Graft, join: frozenset[int], dm: DistanceMap) -> MergeForest:
    """The sweep stage: the merge forest of ``dm``'s root component under
    ``join``, a minimum join the caller has proved, with its caps and beams.

    Levels are swept upward with an incremental union-find, halving paths
    on the way up.  Each vertex of level i links the groups of its cross
    neighbours to itself, and one pass over the level, in ascending vertex
    order, makes a Q component per group, claimed in ``owner`` by the
    group's root; the previous level's layer components join the one that
    claimed their own group.  Then each edge inside level i is merged once,
    from its larger end, and a second pass makes the layer components, which
    the level's Q components join.  Each vertex's ``home`` is its own-level
    Q component, from which ``_leaving`` climbs to every component's leaving
    join edges."""
    graph, dist, nbrs, root = graft.graph, dm.dist, graft.graph.nbrs, dm.root
    reached = [d for d in dist if d is not None]
    lo, hi = min(reached), max(reached)
    levels: list[list[int]] = [[] for _ in range(lo, hi + 1)]  # ascending
    for v, d in enumerate(dist):
        if d is not None:
            levels[d - lo].append(v)
    if not (lo <= 0 <= hi and all(levels)):
        raise InternalError(
            "distance values must form a contiguous range around 0")

    level, is_layer, top, low, up = [], [], [], [], []
    q_children, d_children = [], []
    home: list[int | None] = [None] * graph.n  # None off the root's component
    uf = list(range(graph.n))
    # A group root's component, if at least ``first``: a build of this step.
    owner = [-1] * graph.n
    first = 0  # the first build index of the current step
    for i, vs in enumerate(levels, lo):
        inner = []  # edges inside level i, merged after the Q grouping
        for v in vs:  # a root until its own level's edges merge
            for u in nbrs[v]:
                du = dist[u]
                if du is not None and du < i:  # a cross edge
                    while uf[u] != u:
                        uf[u] = u = uf[uf[u]]
                    uf[u] = v
                elif du == i and u < v:
                    inner.append((u, v))

        # Q components: one per group, with each vertex's home
        below, first = range(first, len(top)), len(top)
        for v in vs:  # ascending: a group's first vertex is its least
            x = v
            while uf[x] != x:
                uf[x] = x = uf[uf[x]]
            if owner[x] >= first:
                home[v] = x = owner[x]
                top[x].append(v)
                continue
            home[v] = owner[x] = len(top)
            level.append(i)
            is_layer.append(False)
            top.append([v])
            low.append(v)
            up.append(None)
            q_children.append(())
            d_children.append([])
        for c in below:  # the layer components one level down
            x = low[c]
            while uf[x] != x:
                uf[x] = x = uf[uf[x]]
            x = owner[x]
            if x < first:
                raise InternalError("every component meets its own level")
            d_children[x].append(c)
            up[c] = x
            if low[c] < low[x]:
                low[x] = low[c]

        # Layer components: the groups once the level's own edges merge
        for u, v in inner:
            while uf[u] != u:
                uf[u] = u = uf[uf[u]]
            while uf[v] != v:
                uf[v] = v = uf[uf[v]]
            uf[u] = v
        below, first = range(first, len(top)), len(top)
        for v in vs:
            x = v
            while uf[x] != x:
                uf[x] = x = uf[uf[x]]
            if owner[x] >= first:
                top[owner[x]].append(v)
                continue
            owner[x] = len(top)
            level.append(i)
            is_layer.append(True)
            top.append([v])
            low.append(v)
            up.append(None)
            q_children.append([])
            d_children.append(None)
        for c in below:  # the level's Q components
            x = low[c]
            while uf[x] != x:
                uf[x] = x = uf[uf[x]]
            x = owner[x]
            if x < first:
                raise InternalError("every component meets its own level")
            q_children[x].append(c)
            up[c] = x
            if low[c] < low[x]:
                low[x] = low[c]
            depth = d_children[x]  # shared while there is one Q component
            d_children[x] = d_children[c] if depth is None else depth + d_children[c]

    is_cap = [False] * len(top)
    x = home[root]
    while x is not None:  # the root's own components are the caps
        is_cap[x] = True
        x = up[x]
    # Build indices grow up the forest, so they rank it for the climb.
    leaving = _leaving(graph, join, home, up, range(len(top)))
    beam, f_root, wrong = [None] * len(top), [None] * len(top), []
    for x, out in enumerate(leaving):
        if is_cap[x]:
            continue
        if len(out) == 1 and dist[out[0][1]] == level[x]:
            beam[x], f_root[x] = out[0]
        else:
            wrong.append(x)
    if wrong:  # the first by id, as a numbered build would meet it
        x = min(wrong, key=_id_key(level, low, is_layer))
        if len(leaving[x]) != 1:
            raise TheoremViolationError(
                f"component at level {level[x]} (smallest vertex {low[x]})"
                f" is left by {len(leaving[x])} join edges instead of 1")
        raise TheoremViolationError(
            f"join root {leaving[x][0][1]} lies below the top level of its"
            " component")
    return MergeForest(
        root=root, distance_map=dm, interval=range(lo, hi + 1),
        initial_id=up[home[root]], level=level, is_layer=is_layer, a_set=top,
        low=low, is_cap=is_cap, beam=beam, f_root=f_root,
        q_children=q_children, d_children=d_children, parent=up)


def _number(forest: MergeForest) -> DistanceDecomposition:
    """The numbering stage: ids by (level, smallest vertex, layer before
    Q), the forest's columns read in id order, top levels as frozensets and
    child lists as ascending id tuples."""
    order = sorted(range(len(forest.level)),
                   key=_id_key(forest.level, forest.low, forest.is_layer))
    pos = [0] * len(order)  # build index -> id
    for cid, x in enumerate(order):
        pos[x] = cid

    def by_id(column: list) -> tuple:
        return tuple(map(column.__getitem__, order))

    def ids(cs: Sequence[int]) -> tuple[int, ...]:
        """The ids of the build indices ``cs``, ascending."""
        if len(cs) > 1:
            return tuple(sorted([pos[c] for c in cs]))
        return (pos[cs[0]],) if cs else ()

    return DistanceDecomposition(
        root=forest.root, distance_map=forest.distance_map,
        interval=forest.interval, initial_id=pos[forest.initial_id],
        level=by_id(forest.level), is_layer=by_id(forest.is_layer),
        a_set=tuple(map(frozenset, by_id(forest.a_set))),
        is_cap=by_id(forest.is_cap), beam=by_id(forest.beam),
        f_root=by_id(forest.f_root),
        q_children=tuple(map(ids, by_id(forest.q_children))),
        d_children=tuple(map(ids, by_id(forest.d_children))),
        parent=tuple([None if x is None else pos[x]
                      for x in by_id(forest.parent)]))


def distance_decomposition(graft: Graft, join: Iterable[int], root: int) -> DistanceDecomposition:
    """Build the decomposition of the root's component under a minimum join:
    the sweep stage, then the numbering stage."""
    join = frozenset(join)
    dm = f_distances(graft, join, root)  # also asserts the join is minimum
    return _number(_sweep(graft, join, dm))


def is_strong_comb(graft: Graft, root: int, teeth: Iterable[int]) -> bool:
    """Distance profile -1 on a stable dominating tooth set, 0 elsewhere."""
    graph = graft.graph
    teeth = frozenset(teeth)
    for v in teeth:
        if not (0 <= v < graph.n):
            raise StructuralInputError(f"tooth {v} is not a vertex")
    if not (0 <= root < graph.n):
        raise StructuralInputError(f"root {root} is not a vertex")
    if root in teeth or not teeth or not is_stable_dominating(graph, teeth):
        return False
    try:
        dm = f_distances(graft, optimum_join(graft), root)
    except NoJoinError:
        return False
    return all(
        dm[v] == (-1 if v in teeth else 0) for v in range(graph.n))


@dataclass(frozen=True)
class Violation:
    component_id: int | None
    check: str
    message: str


@dataclass(frozen=True)
class DecompositionReport:
    violations: tuple[Violation, ...]
    components_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "components_checked": self.components_checked,
            "violations": [
                {"component_id": v.component_id, "check": v.check,
                 "message": v.message}
                for v in self.violations],
        }


def verify_decomposition(
    graft: Graft, join: Iterable[int], dd: DistanceDecomposition,
) -> DecompositionReport:
    """Re-check the structural theorems behind ``dd`` against ``join``.

    The decomposition is taken as given (its distance map is canonical), so
    a corrupted join, or a graft rewired past it, gets reports, not raises.
    No check passes over the whole join or the whole graph per component.
    Layer components are visited bottom-up (ids run up the levels).  One
    that ``_restriction_closes`` proves from the components below needs no
    graft: neither its restriction, nor its level contraction, nor its Q
    component's depth contraction is built or solved.  Every other check
    runs in its ``_check_*`` routine, the only code that names its
    violations, and the reports keep the order restriction, level, depth.
    """
    join = frozenset(join)
    _check_edge_ids(graft, join)
    graph, is_layer, is_cap = graft.graph, dd.is_layer, dd.is_cap
    home: list[int | None] = [None] * graph.n  # as in the build
    for q, top in enumerate(dd.a_set):
        if not is_layer[q]:
            for v in top:
                home[v] = q
    leaving = _leaving(graph, join, home, dd.parent,
                       [2 * i + layer for i, layer in zip(dd.level, is_layer)])
    out: list[Violation] = []

    def bad(cid: int | None, check: str, message: str) -> None:
        out.append(Violation(cid, check, message))

    for cid, cap in enumerate(is_cap):
        want = 0 if cap else 1
        if len(leaving[cid]) != want:
            bad(cid, "beam-count", f"{len(leaving[cid])} join edges"
                f" leave the component, expected {want}")

    layers = [cid for cid, layer in enumerate(is_layer) if layer]
    closed: set[int] = set()  # bottom-up: ids run up the levels
    for cid in layers:
        if is_cap[cid]:
            continue
        if _restriction_closes(graph, join, dd, cid, home, leaving, closed):
            closed.add(cid)
        else:
            _check_restriction(graph, join, dd, cid, bad)

    for cid in layers:
        if not (is_cap[cid] and dd.level[cid] != 0) and cid not in closed:
            _check_level_contraction(graph, join, dd, cid, bad)

    for cid, layer in enumerate(is_layer):
        if not (layer or is_cap[cid]) and dd.d_children[cid] \
                and dd.parent[cid] not in closed:
            _check_depth_contraction(graph, join, dd, cid, home, leaving, bad)

    return DecompositionReport(tuple(out), len(is_layer))


def _restriction_closes(graph, join, dd, cid, home, leaving, closed) -> bool:
    """Whether the decomposition proves that ``_check_restriction`` and
    ``_check_level_contraction`` report nothing for the non-cap layer
    component C, nor ``_check_depth_contraction`` for its Q component, given
    the set of components below it already ``closed`` this way.

    Write L for C's level, A for its top level, f for its join root, J_C for
    the join edges inside C and T' for their odd set; d_C(f, x) is the
    toggle distance the check computes, ν(T' Δ {f, x}) - ν(T').  C closes
    under these premises, each checked here; every child D of C closed, so
    they hold at every layer component below C too:

    1. f lies in A, and C has one Q component.  On the graft the
       decomposition was built from, both ends of a pass (below) have an
       edge into the child passed, so they share a Q component, and the
       search enters all of A only then; so this only matters on rewired
       grafts;
    2. every edge at A ends in A, one level down in a layer child of C, or
       one level up.  With the premises below C, levels are 1-Lipschitz on
       every edge at C, and an edge inside C that leaves a component E
       below C rises from E's top level into E's parent (the component of
       its upper end has that of its lower end as a child);
    3. no join edge joins two vertices of A;
    4. D is left by one join edge only, its beam, from its join root f_D to
       a vertex w_D of A.

    Minimality.  A join edge inside C joins consecutive levels, so it leaves
    the component E of its lower end's level, which lies strictly inside C:
    it is E's beam.  So J_C holds one beam for each of the N non-cap layer
    components strictly inside C.  Their cuts are pairwise edge-disjoint (an
    edge leaving E rises from E's level, and its lower end fixes E there),
    and each holds one edge of J_C, so each is a T'-cut: every T'-join has
    at least N = |J_C| edges, and J_C is minimum.

    Lower bound.  Toggling T' at f and x keeps a cut a T'-cut unless it
    holds x (f, at level L, is in none), and x lies in at most L - dist(x)
    of them; so d_C(f, x) >= dist(x) - L.

    Upper bound.  A walk from f to x in C that repeats no join edge has an
    edge set of odd multiplicity S, an {f, x}-join no heavier than the walk
    (+1 off the join, -1 on it), and J_C Δ S is a T' Δ {f, x}-join of
    |J_C| + w(S) edges; so d_C(f, x) is at most the walk's weight.  Passing
    a child D weighs 0: in by a non-join edge from A to D's top level (+1),
    on to f_D (0, by D's certificate) and out by the beam (-1), or the
    reverse; by premise 3 an edge inside A is off the join and only adds
    weight.  The search below runs depth-first from f over A by passes: it
    never leaves a vertex through the child it entered by, never enters a
    vertex on its stack, and enters a vertex at most twice, by different
    children.  So the stack is a route of weight 0 to its top vertex that
    passes no child twice (two passes of D both meet w_D, so they would be
    consecutive there): its join edges, the beams and those inside the
    children passed, are distinct.  A vertex y below A lies in some child D;
    a route that entered w_D by another child than D does not pass D, and
    going on by the beam and D's certificate reaches y with weight
    -1 + dist(y) - (L - 1) = dist(y) - L.

    So C closes when the search enters all of A, and each w_D by another
    child than D at least once (f counts as entered by none).  The work is
    linear in the edges at A.

    Level contraction.  It has one blob, so no kept edge and no terminal,
    and by premise 3 no join edge lies inside A: a one-vertex graph is
    factor-critical, and no top-level join edge matches no non-root blob.

    Depth contraction H.  Every edge at A ends in A or in a child, which is
    a tooth, so H is A plus the teeth; by premises 3 and 4 its kept join
    edges are the beams, one at each tooth.  The teeth are stable, as every
    kept edge is at A.  They dominate: a pass meets a tooth at each of its
    two ends in A, the search enters every vertex of A but f, and it leaves
    f unless A = {f}, which is then every w_D.  The tooth stars are disjoint
    T_H-cuts, so they pack |beams| = ν(H) and J_H = the beams is a minimum
    join.  Toggling f and x keeps every star odd but x's, so d_H(f, x) >= 0
    on A and >= -1 on teeth.  A route to x in A maps to H with its weight,
    0; one to w_D not passing D, then the beam, reaches D's tooth with
    weight -1.  So H is a strong comb rooted at f."""
    dist, parent = dd.distance_map.dist, dd.parent
    level, top, f_root = dd.level[cid], dd.a_set[cid], dd.f_root[cid]
    if f_root not in top or len(dd.q_children[cid]) != 1:
        return False
    ends = {}  # child -> its beam's outer end w_D
    for d in dd.d_children[cid]:
        beam, f_d = dd.beam[d], dd.f_root[d]
        if d not in closed or leaving[d] != [(beam, f_d)]:
            return False
        u, v = graph.endpoints(beam)
        ends[d] = v if u == f_d else u
        if ends[d] not in top:
            return False
    steps: dict[int, list[tuple[int, int]]] = {}  # vertex -> (vertex, child)
    for v in top:
        for u, e in zip(graph.nbrs[v], graph.eids[v]):
            if dist[u] == level - 1:
                d = parent[home[u]]
                if parent[parent[d]] != cid:
                    return False
                if e not in join:  # a pass through d between v and w_D
                    steps.setdefault(v, []).append((ends[d], d))
                    steps.setdefault(ends[d], []).append((v, d))
            elif dist[u] == level:
                if u not in top or e in join:
                    return False
            elif dist[u] != level + 1:
                return False
    came: dict[int, list[int | None]] = {f_root: [None]}  # entered by
    stack = [(f_root, None, iter(steps.get(f_root, ())))]
    on_stack = {f_root}
    while stack:
        v, by, todo = stack[-1]
        for u, d in todo:
            if d == by or u in on_stack:
                continue
            entered = came.setdefault(u, [])
            if len(entered) < 2 and d not in entered:
                entered.append(d)
                on_stack.add(u)
                stack.append((u, d, iter(steps.get(u, ()))))
                break
        else:
            on_stack.discard(v)
            stack.pop()
    return len(came) == len(top) and all(
        came[w] != [d] for d, w in ends.items())


def _check_restriction(graph, join, dd, cid, bad) -> None:
    """The join restricted to a non-cap layer component must be a minimum
    join of the induced sub-graft, whose distances from the join root are
    the outer ones shifted by the root's level.  Vertices are read in
    order, so the smallest offending one is named."""
    verts = sorted(dd.a_set[cid] | _d_set(dd.a_set, dd.d_children, cid))
    image = {v: i for i, v in enumerate(verts)}
    sub, new_id = _contraction(graph, join, verts, image, len(verts))
    inner_join = frozenset(i for e, i in new_id.items() if e in join)
    if len(inner_join) != nu(sub):
        bad(cid, "induced-join-minimality", f"restriction has"
            f" {len(inner_join)} edges, minimum is {nu(sub)}")
        return
    f_root = dd.f_root[cid]
    inner_dm = f_distances(sub, inner_join, image[f_root])
    offset = dd.distance_map[f_root]
    for v in verts:
        inner = inner_dm[image[v]]
        if inner is None or dd.distance_map[v] != offset + inner:
            bad(cid, "distance-projection",
                f"vertex {v}: outer {dd.distance_map[v]} != "
                f"{offset} + inner {inner}")
            return


def _contraction(graph: Graph, join: frozenset[int], top: Iterable[int],
                 image: dict[int, int], n: int) -> tuple[Graft, dict[int, int]]:
    """The graft on ``n`` blobs keeping, in edge order, each edge at ``top``
    whose ends have distinct images; a blob is a terminal iff an odd number
    of kept join edges meet it, the parity contraction preserves.  Under an
    injective image on ``top`` this is the sub-graft induced on ``top``,
    terminals where the restricted join has odd degree.  Also returns the
    map from kept edges to their new ids."""
    nbrs, eids = graph.nbrs, graph.eids
    kept = sorted({e for v in top for u, e in zip(nbrs[v], eids[v])
                   if u in image and image[u] != image[v]})
    edges = [(image[u], image[v]) for u, v in map(graph.endpoints, kept)]
    odd: set[int] = set()
    for e, ends in zip(kept, edges):
        if e in join:
            odd ^= set(ends)
    return (Graft(Graph(n, edges), frozenset(odd)),
            {e: i for i, e in enumerate(kept)})


def _check_level_contraction(graph, join, dd, cid, bad) -> None:
    """Collapsing each same-level Q component of a layer component must give
    a factor-critical graft rooted at the join root's blob, on which the
    join's top-level edges form a near-perfect matching.  Those Q components
    meet only through edges inside the top level, so only these are read."""
    top, qs = dd.a_set[cid], dd.q_children[cid]
    blob = {v: i for i, q in enumerate(qs) for v in dd.a_set[q]}
    contracted, new_id = _contraction(graph, join, top, blob, len(qs))
    root_blob = blob[dd.root if dd.is_cap[cid] else dd.f_root[cid]]
    others = frozenset(range(contracted.n)) - {root_blob}
    if not is_factor_critical(contracted.graph):
        bad(cid, "factor-critical-contraction",
            "level contraction is not factor-critical")
        return
    if contracted.terminals != others:
        bad(cid, "factor-critical-contraction",
            "level contraction terminals differ from all-but-root")
        return
    nbrs, eids = graph.nbrs, graph.eids
    top_join = {e for v in top for u, e in zip(nbrs[v], eids[v])
                if u in blob and e in join}
    if top_join <= new_id.keys():  # else an edge vanished inside one blob
        ends = [x for e in top_join for x in contracted.graph.endpoints(new_id[e])]
        if len(ends) == len(others) and set(ends) == others:
            return
    bad(cid, "near-perfect-matching",
        "top-level join edges do not match all non-root blobs exactly once")


def _check_depth_contraction(graph, join, dd, cid, home, leaving, bad) -> None:
    """Collapsing each child of a non-cap Q component must give a strong comb
    rooted at the join root, whose minimum join is the set of child beams
    (the children's leaving edges).  A tooth met by other than one join edge
    is a child with a beam-count report already.  The graft is read from the
    top level: a lower neighbour lies in the child reached by climbing from
    its own-level Q component."""
    level, parent = dd.level[cid], dd.parent
    top = sorted(dd.a_set[cid])
    image = {v: i for i, v in enumerate(top)}
    teeth = {c: len(top) + i for i, c in enumerate(dd.d_children[cid])}
    for v in top:
        for u in graph.nbrs[v]:
            du = dd.distance_map[u]  # None off the root's component: no child's
            if du is not None and du < level:
                child = home[u]  # climbed to the layer component at level - 1
                while dd.level[child] < level - 1 or not dd.is_layer[child]:
                    child = parent[child]
                if parent[child] == cid:
                    image[u] = teeth[child]
    contracted, new_id = _contraction(graph, join, top, image,
                                      len(top) + len(teeth))
    beams = [e for c in dd.d_children[cid] for e, _ in leaving[c]]
    if any(e not in new_id for e in beams):
        bad(cid, "comb-join",
            "a join edge leaves the depth set without staying inside "
            "the component")
        return
    mapped = frozenset(new_id[e] for e in beams)
    if not is_strong_comb(contracted, image[dd.f_root[cid]], teeth.values()):
        bad(cid, "strong-comb",
            "depth contraction is not a strong comb")
        return
    if not (is_join(contracted, mapped) and len(mapped) == nu(contracted)):
        bad(cid, "comb-join",
            "child beams are not a minimum join of the depth contraction")
