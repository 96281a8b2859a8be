"""Exact maximum-weight perfect matching, small graphs.

The workhorse is a maximum-weight perfect matching solver using Edmonds'
blossom method in the classic primal-dual formulation (Galil's survey
describes the exact scheme implemented here), started from a given
``DualState``.  Integer weights only, so all dual variables stay integral
and the optimum is certified exactly at the end of every solve.

On an odd vertex count it is near-perfect: it augments until one vertex is
exposed, then grows that vertex's tree until no delta is left.  By Gallai's
lemma the graph is factor-critical iff that search ends in one blossom
spanning every vertex (``DualState.spans``), as it always does on a complete
graph.  Those duals bound the near-perfect matchings exposing each vertex t
tightly, so ``distances`` reads every terminal toggle off one such solve
from the base optimum, doubling weights and start duals so that exposed
start vertices share a dual parity (an odd S-S slack would make the halved
delta round).  The subset-DP cross-check oracle lives in the tests.

A minimum-cost perfect matching is solved once by ``perfect_optimum``, the
solve from zero duals under weight -cost; ``tjoin.optimum_join`` pairs by its
mate.  ``tight_pairing`` finds the lexicographically smallest optimal pairing
for printed joins (``tjoin.minimum_join``, ``min_weight_perfect_matching``)
by a second solve on the edges tight under the optimum's duals, with a
tie-break penalty encoded below the primary cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import InternalError, StructuralInputError

WeightFn = Callable[[int, int], int]


@dataclass
class DualState:
    """A primal-dual state in the solver's units: the slack of edge vw is
    ``dual[v] + dual[w] - 2 w(v, w)`` plus ``2 z`` for each blossom holding
    both ends.  ``blossoms`` lists each blossom's leaves and dual ``z``.
    After a near-perfect solve (odd n) that ``spans``, twice a matching
    exposing t weighs at most sum(dual) - dual[t] plus z (len(leaves) - 1)
    per blossom, with equality for the best such."""

    mate: list[int]
    dual: list[int]
    blossoms: list[tuple[list[int], int]] = field(default_factory=list)

    def spans(self) -> bool:
        """After a near-perfect solve: one vertex exposed and, for n > 1, one
        blossom holding every vertex."""
        n = len(self.mate)
        return self.mate.count(-1) == 1 and (
            n == 1 or any(len(leaves) == n for leaves, _ in self.blossoms))


class _Blossom:
    """A non-trivial (sub-)blossom."""

    __slots__ = ("childs", "edges", "mybestedges")

    def __init__(self) -> None:
        self.childs: list = []
        # edges[i] = (v, w) with v in childs[i] and w in childs[i+1 mod len].
        self.edges: list[tuple[int, int]] = []
        # Least-slack edges to neighboring S-blossoms (delta3 bookkeeping).
        self.mybestedges: list[tuple[int, int]] | None = None

    def leaves(self):
        stack = list(self.childs)
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def max_weight_matching(
    n: int, weighted_edges: Sequence[tuple[int, int, int]], state: DualState,
) -> list[int]:
    """Maximum-weight *perfect* matching of the integer-weighted graph.

    Returns ``mate`` with ``mate[v]`` the partner of ``v`` or -1.  Any
    weights are allowed.  The solve starts from ``state`` (a blossom-free,
    dual-feasible matching whose edges are tight, its exposed vertices of
    one dual parity; ``InternalError`` otherwise), and ``state`` is
    overwritten with the optimum.  For even n a graph without a perfect
    matching raises ``InternalError``.  For odd n the search ends
    near-perfect where it can, with the open blossoms left as they are,
    each an odd cycle of tight edges; ``state.spans()`` tells whether one
    vertex is exposed and one blossom spans every vertex.
    """
    # w2[v][w]: twice the heaviest weight among the parallel v-w edges.
    w2: list[dict[int, int]] = [{} for _ in range(n)]
    for i, j, w in weighted_edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise StructuralInputError(f"bad matching edge ({i}, {j})")
        if int(w) != w:
            raise StructuralInputError("matching weights must be integers")
        if j not in w2[i] or 2 * w > w2[i][j]:
            w2[i][j] = w2[j][i] = 2 * w
    nbr = [sorted(row) for row in w2]
    odd = n % 2 == 1  # the near-perfect search

    mate: dict[int, int] = {}
    # label[b]: 1 = S, 2 = T (absent = free), for top-level blossoms; also
    # set on vertices inside T-blossoms reached from outside.
    label: dict = {}
    labeledge: dict = {}
    inblossom: dict = {v: v for v in range(n)}
    blossomparent: dict = {v: None for v in range(n)}
    blossombase: dict = {v: v for v in range(n)}
    bestedge: dict = {}
    blossomdual: dict[_Blossom, int] = {}
    allowedge: dict[tuple[int, int], bool] = {}
    queue: list[int] = []

    def slack(v: int, w: int) -> int:
        return dualvar[v] + dualvar[w] - w2[v][w]

    # Vertex duals are premultiplied by two so integer arithmetic survives
    # the half-integral updates.
    if len(state.mate) != n or len(state.dual) != n or state.blossoms:
        raise InternalError("a start needs n mates, n duals, no blossoms")
    dualvar = list(state.dual)
    mate.update((v, w) for v, w in enumerate(state.mate) if w != -1)
    if any(mate.get(w) != v or w not in w2[v] or slack(v, w)
           for v, w in mate.items()):
        raise InternalError("start matching is not a set of tight edges")
    if any(dualvar[i] + dualvar[j] < w
           for i in range(n) for j, w in w2[i].items()):
        raise InternalError("start duals are not feasible")
    if len({dualvar[v] % 2 for v in range(n) if v not in mate}) > 1:
        raise InternalError("start's exposed duals differ in parity")

    def assign_label(w: int, t: int, v: int | None) -> None:
        b = inblossom[w]
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = None if v is None else (v, w)
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if isinstance(b, _Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        else:
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v: int | None, w: int | None):
        """Trace back from v and w; return a common base vertex or None when
        the trails reach two distinct free vertices (an augmenting path)."""
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = None
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                v = labeledge[b][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        path = b.childs
        edgs = b.edges = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Merge the sub-blossoms' least-slack edge tables.
        bestedgeto: dict = {}
        for bv in path:
            if isinstance(bv, _Blossom):
                if bv.mybestedges is not None:
                    nblist = bv.mybestedges
                    bv.mybestedges = None
                else:
                    nblist = [(u, x) for u in bv.leaves() for x in nbr[u]]
            else:
                nblist = [(bv, x) for x in nbr[bv]]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (bj != b and label.get(bj) == 1
                        and (bj not in bestedgeto
                             or slack(i, j) < slack(*bestedgeto[bj]))):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        b.mybestedges = list(bestedgeto.values())
        bestedge[b] = min(b.mybestedges, key=lambda k: slack(*k), default=None)

    def expand_blossom(b: _Blossom, endstage: bool) -> None:
        for s in b.childs:
            blossomparent[s] = None
            if isinstance(s, _Blossom):
                if endstage and blossomdual[s] == 0:
                    expand_blossom(s, endstage)
                else:
                    for v in s.leaves():
                        inblossom[v] = s
            else:
                inblossom[s] = s
        if (not endstage) and label.get(b) == 2:
            # Relabel the sub-blossoms along the alternating path from the
            # entry child to the base; the remaining ones become free.
            entrychild = inblossom[labeledge[b][1]]
            j = b.childs.index(entrychild)
            if j & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = b.edges[j]
                else:
                    q, p = b.edges[j - 1]
                label[w] = None
                label[q] = None
                assign_label(w, 2, v)
                allowedge[(p, q)] = allowedge[(q, p)] = True
                j += jstep
                if jstep == 1:
                    v, w = b.edges[j]
                else:
                    w, v = b.edges[j - 1]
                allowedge[(v, w)] = allowedge[(w, v)] = True
                j += jstep
            bw = b.childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            j += jstep
            while b.childs[j] != entrychild:
                bv = b.childs[j]
                if label.get(bv) == 1:
                    j += jstep
                    continue
                if isinstance(bv, _Blossom):
                    for v in bv.leaves():
                        if label.get(v):
                            break
                else:
                    v = bv
                if label.get(v):
                    label[v] = None
                    label[mate[blossombase[bv]]] = None
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        label.pop(b, None)
        labeledge.pop(b, None)
        bestedge.pop(b, None)
        del blossomparent[b]
        del blossombase[b]
        del blossomdual[b]

    def augment_blossom(b: _Blossom, v: int) -> None:
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if isinstance(t, _Blossom):
            augment_blossom(t, v)
        i = j = b.childs.index(t)
        if i & 1:
            j -= len(b.childs)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = b.childs[j]
            if jstep == 1:
                w, x = b.edges[j]
            else:
                x, w = b.edges[j - 1]
            if isinstance(t, _Blossom):
                augment_blossom(t, w)
            j += jstep
            t = b.childs[j]
            if isinstance(t, _Blossom):
                augment_blossom(t, x)
            mate[w] = x
            mate[x] = w
        b.childs = b.childs[i:] + b.childs[:i]
        b.edges = b.edges[i:] + b.edges[:i]
        blossombase[b] = blossombase[b.childs[0]]

    def augment_matching(v: int, w: int) -> None:
        for s, j in ((v, w), (w, v)):
            while 1:
                bs = inblossom[s]
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if isinstance(bt, _Blossom):
                    augment_blossom(bt, j)
                mate[j] = s

    def verify_optimum() -> None:
        """Certify the final matching via complementary slackness."""
        if blossomdual and min(blossomdual.values()) < 0:
            raise InternalError("blossom dual went negative")
        chain = {}  # each vertex's enclosing blossoms, outermost first
        for v in range(n):
            c = [v]
            while blossomparent[c[-1]] is not None:
                c.append(blossomparent[c[-1]])
            c.reverse()
            chain[v] = c

        def full_slack(i: int, j: int) -> int:  # blossom duals included
            s = slack(i, j)
            for bi, bj in zip(chain[i], chain[j]):
                if bi != bj:
                    break
                s += 2 * blossomdual[bi]
            return s

        for i, j in ((i, j) for i in range(n) for j in w2[i] if i < j):
            s = full_slack(i, j)
            if s < 0:
                raise InternalError("matching edge with negative slack")
            if (mate.get(i) == j or mate.get(j) == i) and s != 0:
                raise InternalError("matched edge with nonzero slack")
        for b, zb in blossomdual.items():
            if (zb > 0 or odd) and len(b.edges) % 2 != 1:
                raise InternalError("odd blossom with even edge count")
            if odd and any(full_slack(i, j) for i, j in b.edges):
                raise InternalError("blossom cycle edge with nonzero slack")
            if zb > 0:
                for i, j in b.edges[1::2]:
                    if mate[i] != j or mate[j] != i:
                        raise InternalError("positive blossom not full")

    while len(mate) < n:
        # One stage per augmentation.
        label.clear()
        labeledge.clear()
        bestedge.clear()
        for b in blossomdual:
            b.mybestedges = None
        allowedge.clear()
        queue[:] = []
        for v in range(n):
            if (v not in mate) and label.get(inblossom[v]) is None:
                assign_label(v, 1, None)

        augmented = 0
        while 1:
            while queue and not augmented:
                v = queue.pop()
                dv, wv = dualvar[v], w2[v]
                for w in nbr[v]:
                    bv = inblossom[v]  # add_blossom may move v mid-scan
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if (v, w) not in allowedge:
                        kslack = dv + dualvar[w] - wv[w]
                        if kslack <= 0:
                            allowedge[(v, w)] = allowedge[(w, v)] = True
                    if (v, w) in allowedge:
                        if label.get(bw) is None:
                            assign_label(w, 2, v)
                        elif label.get(bw) == 1:
                            base = scan_blossom(v, w)
                            if base is not None:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = 1
                                break
                        elif label.get(w) is None:
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label.get(bw) == 1:
                        if bestedge.get(bv) is None or kslack < slack(*bestedge[bv]):
                            bestedge[bv] = (v, w)
                    elif label.get(w) is None:
                        if bestedge.get(w) is None or kslack < slack(*bestedge[w]):
                            bestedge[w] = (v, w)

            if augmented:
                break

            # No augmenting path with the current duals; compute the
            # bottleneck among the standard dual adjustments.  There is no
            # delta-1 step: duals may go negative.
            deltatype = -1
            delta = math.inf
            deltaedge = deltablossom = None

            for v in range(n):
                if label.get(inblossom[v]) is None and bestedge.get(v) is not None:
                    d = slack(*bestedge[v])
                    if d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            for b in blossomparent:
                if (blossomparent[b] is None and label.get(b) == 1
                        and bestedge.get(b) is not None):
                    d = slack(*bestedge[b]) // 2
                    if d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            for b in blossomdual:
                if (blossomparent[b] is None and label.get(b) == 2
                        and blossomdual[b] < delta):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                if odd:  # the exposed vertices' trees can grow no more
                    break
                raise InternalError("the graph has no perfect matching")

            for v in range(n):
                lbl = label.get(inblossom[v])
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label.get(b) == 1:
                        blossomdual[b] += delta
                    elif label.get(b) == 2:
                        blossomdual[b] -= delta

            if deltatype in (2, 3):
                (v, w) = deltaedge
                allowedge[(v, w)] = allowedge[(w, v)] = True
                queue.append(v)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        for b in list(blossomdual.keys()):
            if (b in blossomdual and blossomparent[b] is None
                    and label.get(b) == 1 and blossomdual[b] == 0):
                expand_blossom(b, True)

    verify_optimum()

    out = [mate.get(v, -1) for v in range(n)]
    state.mate = list(out)
    state.dual = dualvar
    state.blossoms = [(list(b.leaves()), z) for b, z in blossomdual.items()]
    return out


def perfect_optimum(cost: Sequence[Sequence[int]]) -> DualState:
    """An optimal state of the minimum-cost perfect matching on the ranks of
    the symmetric table ``cost``: the maximum-weight perfect matching under
    weight -cost, solved from zero duals."""
    k = len(cost)
    state = DualState([-1] * k, [0] * k)
    max_weight_matching(k, [(i, j, -cost[i][j])
                            for i in range(k) for j in range(i + 1, k)], state)
    return state


def matched_total(cost: Sequence[Sequence[int]], state: DualState) -> int:
    return sum(cost[i][j] for i, j in enumerate(state.mate) if i < j)


def tight_pairing(
    cost: Sequence[Sequence[int]], optimum: DualState,
) -> list[tuple[int, int]]:
    """The lexicographically smallest minimum-cost perfect matching, as
    sorted rank pairs, given ``optimum = perfect_optimum(cost)`` (read only).

    By complementary slackness every optimal matching uses only edges tight
    under the optimal duals, blossom duals included, so the tie-break solves
    on those alone.  It keeps the primary cost, since a perfect matching of
    tight edges crossing a positive blossom three times is not optimal, and
    adds a penalty B^(k-i) * j per pair (i < j the ranks, B > k^2) below one
    unit of cost.  Summed penalties compare like sorted pair lists: matchings
    agreeing on all pairs with smaller endpoint below rank i both match rank
    i next, and the B^(k-i) term dominates every later position.
    """
    k = len(cost)
    inside = [[0] * k for _ in range(k)]  # twice the blossom duals over ij
    for leaves, z in optimum.blossoms:
        for a in leaves:
            for b in leaves:
                inside[a][b] += 2 * z
    y = optimum.dual
    B = k * k + 1
    scale = B ** (k + 1)
    pow_b = [B ** (k - i) for i in range(k)]
    mate = max_weight_matching(k, [
        (i, j, -(cost[i][j] * scale + pow_b[i] * j))
        for i in range(k) for j in range(i + 1, k)
        if y[i] + y[j] + 2 * cost[i][j] + inside[i][j] == 0],
        DualState([-1] * k, [0] * k))
    pairs = [(i, j) for i, j in enumerate(mate) if i < j]
    if sum(cost[i][j] for i, j in pairs) != matched_total(cost, optimum):
        raise InternalError("tie-break pairing is not a minimum-cost matching")
    return pairs


def _cost_table(
    points: Sequence[int], weight: WeightFn,
) -> tuple[list[int], list[list[int]]]:
    """Sorted points and their symmetric weight table, by rank."""
    pts = sorted(points)
    if len(set(pts)) != len(pts):
        raise StructuralInputError("matching points must be distinct")
    if len(pts) % 2 != 0:
        raise StructuralInputError("perfect matching needs an even point count")
    cost = [[weight(min(a, b), max(a, b)) if a != b else 0 for b in pts]
            for a in pts]
    if any(int(w) != w or w < 0 for row in cost for w in row):
        raise StructuralInputError("matching weights must be nonnegative integers")
    return pts, cost


def min_weight_perfect_matching_value(points: Sequence[int], weight: WeightFn) -> int:
    """Optimal total weight only (no canonical pairing)."""
    _, cost = _cost_table(points, weight)
    return matched_total(cost, perfect_optimum(cost))


def min_weight_perfect_matching(
    points: Sequence[int], weight: WeightFn,
) -> list[tuple[int, int]]:
    """Perfect matching of ``points`` minimizing total ``weight``.

    ``weight`` must be a symmetric nonnegative-integer function.  Among all
    optimal matchings the lexicographically smallest sorted pair list is
    returned, so equal inputs give identical output: one value solve, then
    the tight-edge tie-break of ``tight_pairing``.
    """
    pts, cost = _cost_table(points, weight)
    return [(pts[i], pts[j]) for i, j in tight_pairing(cost, perfect_optimum(cost))]
