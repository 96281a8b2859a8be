"""Independent re-derivation of the distance decomposition, for tests only.

For every level i it runs a plain breadth-first search on G[V<=i] to find
the layer components, and on G[V<=i] without the edges inside level i to
find the Q components.  Children and parents come from containment between
neighbouring snapshots, and beams from counting, per component, the join
edges with exactly one endpoint inside.  Nothing is shared with the
library's union-find sweep; the distances are an input, so callers can
pass brute-force ones.

``matchable_deletions`` is the definition of factor-criticality, checked
by exhaustive search and shared with no matching code.
"""

from __future__ import annotations

from collections import deque


def _bfs_components(graph, inside: set[int], skip) -> list[frozenset[int]]:
    """Components of the subgraph on ``inside`` without the edges ``skip``
    accepts."""
    seen: set[int] = set()
    out = []
    for s in sorted(inside):
        if s in seen:
            continue
        seen.add(s)
        comp, queue = [s], deque([s])
        while queue:
            v = queue.popleft()
            for u, e in graph.incident(v):
                if u in inside and u not in seen and not skip(e):
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        out.append(frozenset(comp))
    return out


def oracle_components(graft, join, root: int, dist) -> list[dict]:
    """The components in id order, each as ``DistanceDecomposition.to_json()``
    dumps it plus its ``parent`` id.  Raises AssertionError when a non-cap
    component is not left by exactly one join edge, or a cap component by
    any."""
    graph = graft.graph
    join = frozenset(join)
    found = []  # (level, kind, vertices)
    for i in sorted({d for d in dist if d is not None}):
        inside = {v for v, d in enumerate(dist) if d is not None and d <= i}

        def internal(e):
            return all(dist[x] == i for x in graph.endpoints(e))

        found += [(i, "q", c) for c in _bfs_components(graph, inside, internal)]
        found += [(i, "layer", c)
                  for c in _bfs_components(graph, inside, lambda e: False)]
    found.sort(key=lambda c: (c[0], min(c[2]), c[1] != "layer"))

    def ids(level, kind, verts):
        """Ids of the ``kind`` components at ``level`` inside ``verts``."""
        return [cid for cid, (lv, k, vs) in enumerate(found)
                if lv == level and k == kind and vs <= verts]

    out = []
    for level, kind, verts in found:
        leaving = [e for e in sorted(join)
                   if (graph.endpoints(e)[0] in verts)
                   != (graph.endpoints(e)[1] in verts)]
        is_cap = root in verts
        if len(leaving) != (0 if is_cap else 1):
            raise AssertionError(
                f"{kind} component {sorted(verts)} at level {level} "
                f"(cap: {is_cap}) is left by join edges {leaving}")
        beam = f_root = None
        if leaving:
            beam = leaving[0]
            f_root = next(x for x in graph.endpoints(beam) if x in verts)
        a_set = {v for v in verts if dist[v] == level}
        # A Q component sits in a layer component of its level, a layer
        # component in a Q component one level up.
        up = (level, "layer") if kind == "q" else (level + 1, "q")
        parent = next((cid for cid, (lv, k, vs) in enumerate(found)
                       if (lv, k) == up and verts <= vs), None)
        q_children = ids(level, "q", verts) if kind == "layer" else []
        out.append({
            "id": len(out), "level": level, "kind": kind,
            "vertices": sorted(verts), "a_set": sorted(a_set),
            "d_set": sorted(verts - a_set), "is_cap": is_cap, "beam": beam,
            "f_root": f_root, "q_children": q_children,
            "d_children": ids(level - 1, "layer", verts), "parent": parent,
        })
    return out


def _perfectly_matchable(left: frozenset[int], adjacent) -> bool:
    """Exhaustive search: match the smallest vertex left, then recurse."""
    if not left:
        return True
    v = min(left)
    return any(_perfectly_matchable(left - {v, u}, adjacent)
               for u in adjacent[v] & left)


def matchable_deletions(graph) -> list[bool]:
    """For each vertex v, whether G - v has a perfect matching.  The graph is
    factor-critical iff all are, and has a near-perfect matching iff any is."""
    adjacent = [set() for _ in range(graph.n)]
    for a, b in graph.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    everyone = frozenset(range(graph.n))
    return [_perfectly_matchable(everyone - {v}, adjacent)
            for v in range(graph.n)]
