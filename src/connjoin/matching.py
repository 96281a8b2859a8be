"""Exact maximum-weight and minimum-weight perfect matching, small graphs.

The workhorse is a maximum-weight matching solver using Edmonds' blossom
method in the classic primal-dual formulation (Galil's survey describes the
exact scheme implemented here).  Integer weights only, so all dual variables
stay integral and the optimum is certified exactly at the end of every solve.

Passing a ``DualState`` selects the internal perfect-matching mode: the
solve starts from that matching and those vertex duals, has no delta-1 step,
lets vertex duals go negative and ends only with a perfect matching.
``distances`` re-optimises each terminal toggle this way from the base
optimum, doubling weights and start duals so that exposed start vertices
share a dual parity (an odd S-S slack would make the halved delta round).
The subset-DP cross-check oracle lives in the tests.

``min_weight_perfect_matching`` reduces minimization to maximization on a
complete graph with strictly positive shifted weights (which forces the
max-weight matching to be perfect) and then canonicalizes ties so that equal
inputs always yield the lexicographically smallest optimal pairing.
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
    both ends.  ``blossoms`` lists each blossom's leaves and dual ``z``."""

    mate: list[int]
    dual: list[int]
    blossoms: list[tuple[list[int], int]] = field(default_factory=list)


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
    n: int, weighted_edges: Sequence[tuple[int, int, int]],
    state: DualState | None = None,
) -> list[int]:
    """Maximum-weight matching of the given integer-weighted graph.

    Returns ``mate`` with ``mate[v]`` the partner of ``v`` or -1.  Edges with
    non-positive weight never help a maximum-weight matching; they are still
    accepted.

    With ``state`` this is a maximum-weight *perfect* matching solve, any
    weights allowed, started from ``state`` (a blossom-free, dual-feasible
    matching whose edges are tight, its exposed vertices of one dual parity;
    ``InternalError`` otherwise), and ``state`` is overwritten with the
    optimum.
    """
    wt: dict[tuple[int, int], int] = {}
    nbr: list[list[int]] = [[] for _ in range(n)]
    for i, j, w in weighted_edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise StructuralInputError(f"bad matching edge ({i}, {j})")
        if int(w) != w:
            raise StructuralInputError("matching weights must be integers")
        key = (i, j) if i < j else (j, i)
        if key in wt:
            if w <= wt[key]:
                continue
        else:
            nbr[i].append(j)
            nbr[j].append(i)
        wt[key] = w
    for lst in nbr:
        lst.sort()
    perfect = state is not None
    if not wt and not perfect:
        return [-1] * n

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
        return dualvar[v] + dualvar[w] - 2 * wt[(v, w) if v < w else (w, v)]

    # Vertex duals are premultiplied by two so integer arithmetic survives
    # the half-integral updates.
    if not perfect:
        dualvar = dict.fromkeys(range(n), max(wt.values()))
    else:
        if len(state.mate) != n or len(state.dual) != n or state.blossoms:
            raise InternalError("a start needs n mates, n duals, no blossoms")
        dualvar = dict(enumerate(state.dual))
        mate.update((v, w) for v, w in enumerate(state.mate) if w != -1)
        if any(mate.get(w) != v or (min(v, w), max(v, w)) not in wt
               or slack(v, w) for v, w in mate.items()):
            raise InternalError("start matching is not a set of tight edges")
        if any(dualvar[i] + dualvar[j] < 2 * w for (i, j), w in wt.items()):
            raise InternalError("start duals are not feasible")
        if len({dualvar[v] % 2 for v in range(n) if v not in mate}) > 1:
            raise InternalError("start's exposed duals differ in parity")

    def assign_label(w: int, t: int, v: int | None) -> None:
        b = inblossom[w]
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
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
        mybest = None
        mybestslack = 0
        for k in b.mybestedges:
            kslack = slack(*k)
            if mybest is None or kslack < mybestslack:
                mybest = k
                mybestslack = kslack
        bestedge[b] = mybest

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
        if not perfect and min(dualvar.values()) < 0:
            raise InternalError("matching dual went negative")
        if blossomdual and min(blossomdual.values()) < 0:
            raise InternalError("blossom dual went negative")
        chain = {}  # each vertex's enclosing blossoms, outermost first
        for v in range(n):
            c = [v]
            while blossomparent[c[-1]] is not None:
                c.append(blossomparent[c[-1]])
            c.reverse()
            chain[v] = c
        for (i, j), w in wt.items():
            s = dualvar[i] + dualvar[j] - 2 * w
            for bi, bj in zip(chain[i], chain[j]):
                if bi != bj:
                    break
                s += 2 * blossomdual[bi]
            if s < 0:
                raise InternalError("matching edge with negative slack")
            if (mate.get(i) == j or mate.get(j) == i) and s != 0:
                raise InternalError("matched edge with nonzero slack")
        if perfect and len(mate) != n:
            raise InternalError("perfect solve left a vertex exposed")
        if any(dualvar[v] != 0 for v in range(n) if v not in mate):
            raise InternalError("exposed vertex with nonzero dual")
        for b, zb in blossomdual.items():
            if zb > 0:
                if len(b.edges) % 2 != 1:
                    raise InternalError("odd blossom with even edge count")
                for i, j in b.edges[1::2]:
                    if mate[i] != j or mate[j] != i:
                        raise InternalError("positive blossom not full")

    while not (perfect and len(mate) == n):
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
                for w in nbr[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if (v, w) not in allowedge:
                        kslack = slack(v, w)
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
            # bottleneck among the four standard dual adjustments.
            # The perfect mode has no delta-1 step: duals may go negative.
            deltatype = -1 if perfect else 1
            delta = math.inf if perfect else min(dualvar.values())
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
                    kslack = slack(*bestedge[b])
                    d = kslack // 2
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

            if deltatype == 1:
                break
            elif deltatype == 2:
                (v, w) = deltaedge
                allowedge[(v, w)] = allowedge[(w, v)] = True
                queue.append(v)
            elif deltatype == 3:
                (v, w) = deltaedge
                allowedge[(v, w)] = allowedge[(w, v)] = True
                queue.append(v)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue
            if blossomparent[b] is None and label.get(b) == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    verify_optimum()

    out = [-1] * n
    for v, w in mate.items():
        out[v] = w
    if perfect:
        state.mate = list(out)
        state.dual = [dualvar[v] for v in range(n)]
        state.blossoms = [(list(b.leaves()), z) for b, z in blossomdual.items()]
    return out


def _solve_value_and_pairs(
    points: Sequence[int], weight: WeightFn,
) -> tuple[int, list[tuple[int, int]]]:
    """One blossom solve on the complete graph over ``points``.

    Weights are shifted to ``shift - w`` with ``shift`` large enough that all
    are positive, so the maximum-weight matching is perfect and minimizes the
    original total.
    """
    pts = list(points)
    k = len(pts)
    if k == 0:
        return 0, []
    wts = {(a, b): weight(pts[a], pts[b]) for a in range(k) for b in range(a + 1, k)}
    shift = max(wts.values()) + 1
    mate = max_weight_matching(
        k, [(a, b, shift - w) for (a, b), w in wts.items()])
    if -1 in mate:
        raise InternalError("perfect matching expected but vertex exposed")
    pairs = [(a, b) for a, b in enumerate(mate) if a < b]
    return sum(wts[p] for p in pairs), [(pts[a], pts[b]) for a, b in pairs]


def min_weight_perfect_matching_value(points: Sequence[int], weight: WeightFn) -> int:
    """Optimal total weight only (no canonical pairing)."""
    if len(points) % 2 != 0:
        raise StructuralInputError("perfect matching needs an even point count")
    return _solve_value_and_pairs(points, weight)[0]


def min_weight_perfect_matching(
    points: Sequence[int], weight: WeightFn,
) -> list[tuple[int, int]]:
    """Perfect matching of ``points`` minimizing total ``weight``.

    ``weight`` must be a symmetric nonnegative-integer function.  Among all
    optimal matchings the lexicographically smallest sorted pair list is
    returned, so equal inputs give identical output.

    The tie-break runs inside a single solve: each pair carries a secondary
    penalty B^(k-i) * j (i < j the point ranks, B > k^2) scaled below one
    unit of primary weight.  Summed penalties compare exactly like sorted
    pair lists — matchings agreeing on all pairs with smaller endpoint
    below rank i must both match rank i next, and the B^(k-i) term then
    dominates every later position — so the penalty-minimal optimum is the
    lexicographic one.
    """
    pts = sorted(points)
    if len(set(pts)) != len(pts):
        raise StructuralInputError("matching points must be distinct")
    if len(pts) % 2 != 0:
        raise StructuralInputError("perfect matching needs an even point count")
    k = len(pts)
    if k == 0:
        return []
    B = k * k + 1
    scale = B ** (k + 1)
    pow_b = [B ** (k - i) for i in range(k)]

    def encoded(a: int, b: int) -> int:
        i, j = (a, b) if a < b else (b, a)
        w = weight(pts[i], pts[j])
        if int(w) != w or w < 0:
            raise StructuralInputError("matching weights must be nonnegative integers")
        return w * scale + pow_b[i] * j

    _, idx_pairs = _solve_value_and_pairs(range(k), encoded)
    return sorted((pts[i], pts[j]) for i, j in idx_pairs)

