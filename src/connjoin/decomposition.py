"""Distance decomposition: levels, layer and Q components, beams, roots.

Vertices are stratified by their distance from the root.  For each level i,
the subgraph on vertices at distance <= i splits into *layer components*;
deferring the edges internal to level i splits them further into
*Q components*.  Every component not containing the root is left by exactly
one join edge (its *beam*), whose inner endpoint (the component's *join
root*) sits on the component's top level.

The components form a laminar merge forest, built by one upward union-find
sweep: each is a node adopting the previous snapshot's components merged
into it.  A node stores only its top level (``a_set``, at most 2n vertex
references in all); ``vertices`` and ``d_set`` are built from the depth
children on first read and cached.  A join edge leaves exactly the nodes
below its endpoints' lowest common node, so beams take one pass over the
join.  The build costs O(n + m) beside the union-find and the per-level
sorts, where storing every vertex set would cost n per level.

``verify_decomposition`` re-derives the structural claims — beam counts,
minimality and distance projection of the restricted join, factor-critical
level contractions carrying a near-perfect matching, and strong-comb depth
contractions with tooth degree one — and reports violations instead of
trusting the construction.  Each induced sub-graft solves its terminal
matching once: where a layer component has a join root, the minimality of
the restricted join is the one ``f_distances`` asserts on that solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (InternalError, NoJoinError, NotMinimumJoinError,
                     StructuralInputError, TheoremViolationError)
from .graph_core import Graph, connected_components
from .distances import DistanceMap, f_distances
from .matching import DualState, max_weight_matching
from .tjoin import (Graft, SubGraft, contract_graft, induced_graft_from_join,
                    is_join, nu, optimum_join)

__all__ = [
    "Component",
    "DistanceDecomposition",
    "DecompositionReport",
    "Violation",
    "distance_decomposition",
    "verify_decomposition",
    "is_factor_critical",
    "is_strong_comb",
]

LAYER = "layer"
Q = "q"


@dataclass(frozen=True)
class Component:
    id: int
    level: int
    kind: str  # LAYER or Q
    a_set: frozenset[int]  # vertices exactly at `level`
    is_cap: bool  # contains the decomposition root
    beam: int | None  # the unique join edge leaving a non-cap component
    f_root: int | None  # the beam's endpoint inside the component
    q_children: tuple[int, ...]  # same-level Q components (LAYER kind only)
    d_children: tuple[int, ...]  # layer components one level down
    parent: int | None  # the next snapshot's component holding this one
    _below: tuple[Component, ...] = field(repr=False, compare=False)  # d_children

    @cached_property
    def vertices(self) -> frozenset[int]:
        """``a_set`` plus the depth children's vertices, built on first read.
        Uncached descendants are filled deepest first, so no read recurses."""
        todo = [self]
        for comp in todo:
            todo.extend(c for c in comp._below if "vertices" not in c.__dict__)
        for comp in reversed(todo[1:]):
            comp.vertices  # caches it from its children, cached already
        return self.a_set.union(*(c.vertices for c in self._below))

    @cached_property
    def d_set(self) -> frozenset[int]:
        """Vertices strictly below ``level``."""
        return self.vertices - self.a_set

    def to_json(self) -> dict:
        doc = {k: getattr(self, k)
               for k in ("id", "level", "kind", "is_cap", "beam", "f_root")}
        for k in ("vertices", "a_set", "d_set", "q_children", "d_children"):
            doc[k] = sorted(getattr(self, k))
        return doc


@dataclass(frozen=True)
class DistanceDecomposition:
    root: int
    distance_map: DistanceMap
    interval: range
    components: tuple[Component, ...]
    initial_id: int
    detached: tuple[frozenset[int], ...]  # components not holding the root

    def component(self, cid: int) -> Component:
        return self.components[cid]

    @property
    def initial(self) -> Component:
        return self.components[self.initial_id]

    def layer_components(self, level: int | None = None) -> Iterator[Component]:
        for c in self.components:
            if c.kind == LAYER and (level is None or c.level == level):
                yield c

    def q_components(self, level: int | None = None) -> Iterator[Component]:
        for c in self.components:
            if c.kind == Q and (level is None or c.level == level):
                yield c

    def to_json(self) -> dict:
        return {"root": self.root, "interval": list(self.interval),
                "components": [c.to_json() for c in self.components]}


def _find(parent: list[int], v: int) -> int:
    """Union-find root of ``v``, halving the path on the way up."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


class _Node:
    """A component while the sweep builds it."""

    __slots__ = ("id", "level", "kind", "rank", "top", "children", "parent",
                 "smallest", "leaving", "is_cap")

    def __init__(self, level: int, kind: str, top: list[int]) -> None:
        self.level, self.kind, self.top = level, kind, top  # top: the newcomers
        self.rank = 2 * level + (kind == LAYER)  # snapshot order, Q first
        self.children: list[_Node] = []  # previous snapshot's nodes inside
        self.leaving: list[tuple[int, int]] = []  # (join edge, inner end)
        self.parent, self.is_cap = None, False  # parent: a _Node once merged


def _snapshot(uf: list[int], level: int, kind: str, newcomers: Iterable[int],
              merges: list[tuple[int, int]], below: list[_Node]) -> list[_Node]:
    """Apply ``merges``, then make one node per union-find group of the
    level's newcomers, adopting the previous snapshot's nodes merged into it.
    Every group holds a newcomer, so a node of ``below`` left out is a bug."""
    for u, v in merges:
        uf[_find(uf, u)] = _find(uf, v)
    groups: dict[int, list[int]] = {}
    for v in newcomers:
        groups.setdefault(_find(uf, v), []).append(v)
    nodes = {root: _Node(level, kind, top) for root, top in groups.items()}
    for child in below:
        node = nodes.get(_find(uf, child.smallest))
        if node is None:
            raise InternalError("every component meets its own level")
        node.children.append(child)
        child.parent = node
    for node in nodes.values():
        node.smallest = min(node.top + [c.smallest for c in node.children])
    return list(nodes.values())


def distance_decomposition(graft: Graft, join: Iterable[int], root: int) -> DistanceDecomposition:
    """Build the decomposition of the root's component under a minimum join.

    Levels are swept upward with an incremental union-find: cross edges into
    level i are merged first (snapshot: Q components), the edges internal to
    level i after (snapshot: layer components).  Ids follow (level, smallest
    vertex, layer before Q)."""
    join = frozenset(join)
    dm = f_distances(graft, join, root)  # also asserts the join is minimum
    graph = graft.graph
    interval = dm.interval()
    levels = dm.level_sets()

    uf = list(range(graph.n))
    nodes: list[_Node] = []
    home: dict[int, _Node] = {}  # vertex -> the Q node of its own level
    layers: list[_Node] = []  # the previous level's layer nodes
    for i in interval:
        cross, inner = [], []  # edges into lower levels, edges inside level i
        for v in levels[i]:
            for u, _ in graph.incident(v):
                if dm[u] is not None and dm[u] <= i:
                    (inner if dm[u] == i else cross).append((u, v))
        qs = _snapshot(uf, i, Q, levels[i], cross, layers)
        home.update((v, q) for q in qs for v in q.top)
        layers = _snapshot(uf, i, LAYER, levels[i], inner, qs)
        nodes += qs + layers
    nodes.sort(key=lambda c: (c.level, c.smallest, c.kind != LAYER))
    for cid, node in enumerate(nodes):
        node.id = cid

    node = home[root]
    while node is not None:  # the root's own nodes are the caps
        node.is_cap, node = True, node.parent
    for e in join:
        u, v = graph.endpoints(e)
        # e leaves each node below its ends' lowest common node
        a, b = home.get(u), home.get(v)  # both None off the root's component
        while a is not b:
            ra, rb = a.rank, b.rank
            if ra <= rb:
                a.leaving.append((e, u))
                a = a.parent
            if rb <= ra:
                b.leaving.append((e, v))
                b = b.parent

    components: list[Component] = []
    for node in nodes:
        if not node.is_cap and len(node.leaving) != 1:
            raise TheoremViolationError(
                f"component at level {node.level} (smallest vertex {node.smallest})"
                f" is left by {len(node.leaving)} join edges instead of 1")
        beam, f_root = (None, None) if node.is_cap else node.leaving[0]
        if f_root is not None and dm[f_root] != node.level:
            raise TheoremViolationError(
                f"join root {f_root} lies below the top level of its component")
        depth, q_children = node.children, ()
        if node.kind == LAYER:
            q_children = tuple(sorted(q.id for q in node.children))
            depth = [d for q in node.children for d in q.children]
        d_children = tuple(sorted(d.id for d in depth))
        components.append(Component(
            id=node.id, level=node.level, kind=node.kind,
            a_set=frozenset(node.top), is_cap=node.is_cap, beam=beam,
            f_root=f_root, q_children=q_children, d_children=d_children,
            parent=None if node.parent is None else node.parent.id,
            _below=tuple(components[d] for d in d_children)))

    return DistanceDecomposition(
        root=root, distance_map=dm, interval=interval,
        components=tuple(components), initial_id=home[root].parent.id,
        detached=tuple(c for c in connected_components(graph) if root not in c))


def is_factor_critical(graph: Graph) -> bool:
    """True iff deleting any single vertex leaves a perfectly matchable graph,
    decided by one near-perfect search (Gallai's lemma; see ``matching``)."""
    n = graph.n
    if n % 2 == 0:
        return n == 0
    state = DualState([-1] * n, [0] * n)
    max_weight_matching(n, [(u, v, 0) for u, v in graph.edges], state)
    return state.spans()


def is_strong_comb(graft: Graft, root: int, teeth: Iterable[int]) -> bool:
    """Distance profile -1 on a stable dominating tooth set, 0 elsewhere."""
    graph = graft.graph
    teeth = frozenset(teeth)
    for v in teeth:
        if not (0 <= v < graph.n):
            raise StructuralInputError(f"tooth {v} is not a vertex")
    if not (0 <= root < graph.n):
        raise StructuralInputError(f"root {root} is not a vertex")
    if root in teeth or not teeth:
        return False
    outside = frozenset(range(graph.n)) - teeth
    dominated: set[int] = set()
    for b in teeth:
        for u, _ in graph.incident(b):
            if u in teeth:  # stability
                return False
            dominated.add(u)
    if dominated != outside:
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
    feeding a corrupted join here reports violations rather than raising.
    """
    join = frozenset(join)
    graph = graft.graph
    out: list[Violation] = []

    def bad(cid: int | None, check: str, message: str) -> None:
        out.append(Violation(cid, check, message))

    for comp in dd.components:
        crossing = [e for e in join
                    if (graph.endpoints(e)[0] in comp.vertices)
                    != (graph.endpoints(e)[1] in comp.vertices)]
        want = 0 if comp.is_cap else 1
        if len(crossing) != want:
            bad(comp.id, "beam-count",
                f"{len(crossing)} join edges leave the component, expected {want}")

    for comp in dd.layer_components():
        if comp.is_cap:
            continue
        sub = induced_graft_from_join(graft, join, comp.vertices)
        inner_join = sub.map_edges(join)
        minimality = f"restriction has {len(inner_join)} edges, minimum is "
        if comp.f_root is None:
            if len(inner_join) != nu(sub.graft):
                bad(comp.id, "induced-join-minimality", f"{minimality}{nu(sub.graft)}")
            continue
        try:  # f_distances asserts that the restriction is minimum
            inner_dm = f_distances(
                sub.graft, inner_join, sub.to_sub_vertex[comp.f_root])
        except NotMinimumJoinError:
            bad(comp.id, "induced-join-minimality", f"{minimality}{nu(sub.graft)}")
            continue
        offset = dd.distance_map[comp.f_root]
        for v in comp.vertices:
            inner = inner_dm[sub.to_sub_vertex[v]]
            if inner is None or dd.distance_map[v] != offset + inner:
                bad(comp.id, "distance-projection",
                    f"vertex {v}: outer {dd.distance_map[v]} != "
                    f"{offset} + inner {inner}")
                break

    for comp in dd.layer_components():
        if not (comp.is_cap and comp.level != 0):
            _check_level_contraction(graft, join, dd, comp, bad)

    for comp in dd.q_components():
        if not comp.is_cap and comp.d_set:
            _check_depth_contraction(graft, join, dd, comp, bad)

    return DecompositionReport(tuple(out), len(dd.components))


def _blob_map(sub: SubGraft, dd: DistanceDecomposition,
              child_ids: tuple[int, ...]):
    """Contract the (sub-relabeled) children inside an induced sub-graft."""
    parts = [sub.map_vertices(dd.component(c).vertices) for c in child_ids]
    contracted, contraction = contract_graft(sub.graft, parts)
    blobs = tuple(contraction.vertex_map[min(p)] for p in parts)
    return contracted, contraction, blobs


def _check_level_contraction(graft, join, dd, comp, bad) -> None:
    """Collapsing each same-level Q component of a layer component must give
    a factor-critical graft rooted at the join root's blob, on which the
    join's top-level edges form a near-perfect matching."""
    anchor = dd.root if comp.is_cap else comp.f_root
    sub = induced_graft_from_join(graft, join, comp.vertices)
    contracted, contraction, blobs = _blob_map(sub, dd, comp.q_children)
    root_blob = contraction.vertex_map[sub.to_sub_vertex[anchor]]
    if not is_factor_critical(contracted.graph):
        bad(comp.id, "factor-critical-contraction",
            "level contraction is not factor-critical")
        return
    if contracted.terminals != frozenset(range(contracted.graph.n)) - {root_blob}:
        bad(comp.id, "factor-critical-contraction",
            "level contraction terminals differ from all-but-root")
        return
    top_edges = [e for e in join
                 if graft.graph.endpoints(e)[0] in comp.a_set
                 and graft.graph.endpoints(e)[1] in comp.a_set]
    matched: set[int] = set()
    ok = True
    for e in top_edges:
        se = sub.to_sub_edge[e]
        ce = contraction.edge_map.get(se)
        if ce is None:
            ok = False  # edge vanished inside one blob
            break
        u, v = contracted.graph.endpoints(ce)
        if u in matched or v in matched:
            ok = False
            break
        matched.update((u, v))
    if not (ok and matched == frozenset(range(contracted.graph.n)) - {root_blob}):
        bad(comp.id, "near-perfect-matching",
            "top-level join edges do not match all non-root blobs exactly once")


def _check_depth_contraction(graft, join, dd, comp, bad) -> None:
    """Collapsing each child of a non-cap Q component must give a strong comb
    rooted at the join root, whose minimum join is the set of child beams,
    with every tooth met exactly once."""
    sub = induced_graft_from_join(graft, join, comp.vertices)
    contracted, contraction, blobs = _blob_map(sub, dd, comp.d_children)
    root_blob = contraction.vertex_map[sub.to_sub_vertex[comp.f_root]]
    child_beams = [e for e in join
                   if (graft.graph.endpoints(e)[0] in comp.d_set)
                   != (graft.graph.endpoints(e)[1] in comp.d_set)]
    if any(e not in sub.to_sub_edge for e in child_beams):
        bad(comp.id, "comb-join",
            "a join edge leaves the depth set without staying inside "
            "the component")
        return
    mapped = frozenset(
        contraction.edge_map[sub.to_sub_edge[e]] for e in child_beams
        if sub.to_sub_edge[e] in contraction.edge_map)
    if len(mapped) != len(child_beams):
        bad(comp.id, "comb-join", "a child beam vanished under contraction")
        return
    if not is_strong_comb(contracted, root_blob, blobs):
        bad(comp.id, "strong-comb",
            "depth contraction is not a strong comb")
        return
    if not (is_join(contracted, mapped) and len(mapped) == nu(contracted)):
        bad(comp.id, "comb-join",
            "child beams are not a minimum join of the depth contraction")
        return
    degree: dict[int, int] = {b: 0 for b in blobs}
    for e in mapped:
        for v in contracted.graph.endpoints(e):
            if v in degree:
                degree[v] += 1
    if any(d != 1 for d in degree.values()):
        bad(comp.id, "tooth-degree",
            "a tooth is met by a number of join edges other than one")
