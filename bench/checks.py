"""Output checks made outside the timed region.

Nothing here uses the decomposition or the decision code.  A YES join is
checked for parity, size, connectivity and terminal cover with breadth-first
search and degree counts, against ν.  A NO answer must come with a pair
certificate: terminals r and t with ν(T) − ν(T − r − t) ≥ 0.  That proves NO,
because in a connected join J covering T the J-path P from r to t leaves
J − P, a join of T − r − t with |P| ≥ 1 fewer edges.  ν is the construction's
own when it fixes one, and otherwise ``tjoin.nu``, the matching reduction.
"""

from __future__ import annotations

from collections import deque

from connjoin.errors import NoJoinError
from connjoin.tjoin import Graft, nu

from workloads import Instance


def reference_nu(inst: Instance) -> int:
    return nu(inst.graft) if inst.nu is None else inst.nu


def no_certificate(graft: Graft) -> int | None:
    """A terminal t with ν(T) − ν(T − r − t) ≥ 0 for r the smallest
    terminal, which proves that no minimum join is connected; None if no
    terminal certifies that from r."""
    if len(graft.terminals) < 2:
        return None
    base = nu(graft)
    r = min(graft.terminals)
    for t in sorted(graft.terminals - {r}):
        try:
            smaller = nu(Graft(graft.graph, graft.terminals - {r, t}))
        except NoJoinError:  # r and t in different components: no pair bound
            continue
        if base - smaller >= 0:
            return t
    return None


def join_problems(graft: Graft, join: list[int], nu_value: int) -> list[str]:
    """Why ``join`` is not a connected minimum join covering T (empty: it is)."""
    graph = graft.graph
    problems = []
    if len(set(join)) != len(join) or not all(0 <= e < graph.m for e in join):
        return ["join edge ids are repeated or out of range"]
    degree = [0] * graph.n
    adjacency: dict[int, list[int]] = {}
    for e in join:
        u, v = graph.endpoints(e)
        degree[u] += 1
        degree[v] += 1
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    odd = {v for v in range(graph.n) if degree[v] % 2}
    if odd != set(graft.terminals):
        problems.append("odd-degree vertices differ from the terminals")
    if len(join) != nu_value:
        problems.append(f"join has {len(join)} edges, ν is {nu_value}")
    if not set(graft.terminals) <= set(adjacency):
        problems.append("join does not cover every terminal")
    if adjacency:
        start = min(adjacency)
        reached = {start}
        queue = deque([start])
        while queue:
            for u in adjacency[queue.popleft()]:
                if u not in reached:
                    reached.add(u)
                    queue.append(u)
        if reached != set(adjacency):
            problems.append("join is not connected")
    return problems
