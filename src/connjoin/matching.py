"""Exact maximum-weight perfect matching, small graphs.

The workhorse is a maximum-weight perfect matching solver using Edmonds'
blossom method in the classic primal-dual formulation (Galil's survey
describes the exact scheme implemented here), started from a given
``DualState``.  Integer weights only, so all dual variables stay integral
and the optimum is certified exactly at the end of every solve.  The start
is checked while the weight rows are built; the certificate
(``verify_optimum``, complementary slackness) checks each pair once, at its
lowest common blossom, from one layout of the final blossom forest, with no
per-vertex chains of blossoms.  Nothing in the solver recurses per nesting
level.  Its state is flat lists by node id: vertices 0..n-1, blossoms
n..2n-1 off a free list.  One dict of the live blossoms' duals, in the order
they were made, is the registry every loop over blossoms reads, so which
id a blossom gets never decides a tie.

On an odd vertex count it is near-perfect: it augments until one vertex is
exposed, then grows that vertex's tree until no delta is left.  By Gallai's
lemma the graph is factor-critical iff that search ends in one blossom
spanning every vertex (``DualState.spans``), as it always does on a complete
graph; ``is_factor_critical`` is one such search.  A spanning blossom is
then rebased so that the last vertex ends exposed.  Its duals bound the
near-perfect matchings exposing each vertex t tightly (``exposure_sizes``).
The subset-DP cross-check oracle lives in the tests.

One rooted search finds every terminal optimum and toggle: the ranks of a
cost table and a root point appended last, under weight -4 cost; a
terminal root is a copy of its rank at hop 0.  ``rooted_optimum`` runs it
from Kolmogorov's greedy initialization (``greedy_start``).  With the root
point exposed, the ranks' mates are a minimum-cost perfect matching on any
table (``tjoin.optimum_join`` and ``min_weight_perfect_matching`` pair by
them), and every other size is a toggle at that root.  Its duals are even
with blossom duals folded in, so ``toggled_sizes`` starts the same search
at any other root from them as they are.  ``tight_pairing`` finds the
lexicographically smallest optimal pairing for printed joins by a second
solve on the pairs the optimum's vertex duals allow to be tight, with a
tie-break penalty encoded below the primary cost.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import InternalError, StructuralInputError
from .graph_core import Graph

WeightFn = Callable[[int, int], int]


@dataclass
class DualState:
    """A primal-dual state in the solver's units: the slack of edge vw is
    ``dual[v] + dual[w] - 2 w(v, w)`` plus ``2 z`` for each blossom holding
    both ends.  ``blossoms`` lists each live blossom's leaves and dual
    ``z``, children before parents in the order the solve made them.
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


def max_weight_matching(
    n: int, weighted_edges: Iterable[tuple[int, int, int]], state: DualState,
) -> list[int]:
    """Maximum-weight *perfect* matching of the integer-weighted graph.

    Returns ``mate`` with ``mate[v]`` the partner of ``v`` or -1.  Any
    weights are allowed; ``weighted_edges`` is read once.  The solve starts
    from ``state`` (a blossom-free, dual-feasible matching whose edges are
    tight, its exposed vertices of one dual parity; ``InternalError``
    otherwise), and ``state`` is
    overwritten with the optimum.  For even n a graph without a perfect
    matching raises ``InternalError``.  For odd n the search ends
    near-perfect where it can, with the open blossoms left as they are,
    each an odd cycle of tight edges; ``state.spans()`` tells whether one
    vertex is exposed and one blossom spans every vertex, and if one does,
    the exposed vertex is n - 1.  The start is
    checked while the weight rows are built, and the end state is certified
    by ``verify_optimum``: each pair once, at its lowest common blossom.
    """
    if len(state.mate) != n or len(state.dual) != n or state.blossoms:
        raise InternalError("a start needs n mates, n duals, no blossoms")
    # Vertex duals are premultiplied by two so integer arithmetic survives
    # the half-integral updates.
    dualvar = list(state.dual)
    # w2[v][w]: twice the heaviest weight among the parallel v-w edges.  The
    # start's feasibility is checked on each new heaviest edge as the rows
    # are built, and reported after the mate check.
    w2: list[dict[int, int]] = [{} for _ in range(n)]
    feasible = True
    for i, j, w in weighted_edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise StructuralInputError(f"bad matching edge ({i}, {j})")
        if type(w) is not int and not _integral(w):
            raise StructuralInputError("matching weights must be integers")
        row = w2[i]
        if j not in row or 2 * w > row[j]:
            row[j] = w2[j][i] = 2 * w
            if dualvar[i] + dualvar[j] < 2 * w:
                feasible = False
    w2 = [row if list(row) == sorted(row) else dict(sorted(row.items()))
          for row in w2]  # scans read each row's (w, weight) by neighbour
    odd = n % 2 == 1  # the near-perfect search

    mate = list(state.mate)
    if any(w != -1 and not (0 <= w < n and mate[w] == v and w in w2[v]
                            and dualvar[v] + dualvar[w] == w2[v][w])
           for v, w in enumerate(mate)):
        raise InternalError("start matching is not a set of tight edges")
    if not feasible:
        raise InternalError("start duals are not feasible")
    if len({dualvar[v] % 2 for v in range(n) if mate[v] == -1}) > 1:
        raise InternalError("start's exposed duals differ in parity")

    # Per node, vertices 0..n-1 and blossoms n..2n-1 (ids off ``free``).
    # label: 1 = S, 2 = T, 0 = free, on top-level nodes and on vertices
    # inside T-blossoms reached from outside.  edges[b][i] = (v, w) with v
    # in childs[b][i], w in childs[b][i+1 mod len]; mybestedges[b] holds the
    # least-slack edges to neighbouring S-blossoms (delta3 bookkeeping).
    nodes = 2 * n
    free = list(range(nodes - 1, n - 1, -1))
    blossomdual: dict[int, int] = {}  # the live blossoms, as they were made
    inblossom, blossomparent = list(range(n)), [-1] * nodes
    label, blossombase = [0] * nodes, list(range(nodes))
    labeledge, bestedge, childs, edges, mybestedges = (
        [None] * nodes for _ in range(5))
    # bestslack[x]: the exact slack of bestedge[x] in the current duals,
    # dualvar[i] + dualvar[j] - w2[i][j]; infinite while bestedge[x] is None.
    # Whoever sets bestedge[x] sets it, and each dual step refreshes it.
    bestslack: list = [math.inf] * nodes
    queue: list[int] = []

    def leaves(b: int) -> list[int]:
        out, stack = [], list(childs[b])
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        return out

    def assign_label(w: int, t: int, v: int | None) -> None:
        # A loop, not a call to itself: a closure that names itself is a
        # cycle, and under the CLI's paused collector it would keep the
        # solve's whole state alive until the command returns (pinned by
        # tests/test_cli.py::test_commands_leave_no_connjoin_cycles).
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = None if v is None else (v, w)
            bestedge[w] = bestedge[b] = None
            bestslack[w] = bestslack[b] = math.inf
            if t == 1:
                break
            v = blossombase[b]  # a T-blossom's base labels its mate S
            w, t = mate[v], 1
        if b >= n:
            queue.extend(leaves(b))
        else:
            queue.append(b)

    def scan_blossom(v: int | None, w: int | None):
        """Trace back from v and w; return a common base vertex or None when
        the trails reach two distinct free vertices (an augmenting path)."""
        path, base = [], None
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
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = free.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = childs[b] = []
        edgs = edges[b] = [(v, w)]
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
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Merge the sub-blossoms' least-slack edge tables: bestedgeto[bj] is
        # the least-slack edge to S-blossom bj seen so far, slackto[bj] its
        # slack.
        slackto: dict[int, int] = {}
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:
            if bv >= n and mybestedges[bv] is not None:
                for k in mybestedges[bv]:
                    (i, j) = k
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if bj != b and label[bj] == 1:
                        s = dualvar[i] + dualvar[j] - w2[i][j]
                        if s < slackto.get(bj, math.inf):
                            slackto[bj], bestedgeto[bj] = s, k
                mybestedges[bv] = None
            else:  # read the leaves' rows as they are
                for u in leaves(bv) if bv >= n else (bv,):
                    du = dualvar[u]
                    for x, wx in w2[u].items():
                        bj = inblossom[x]
                        if bj != b and label[bj] == 1:
                            s = du + dualvar[x] - wx
                            if s < slackto.get(bj, math.inf):
                                slackto[bj], bestedgeto[bj] = s, (u, x)
            bestedge[bv], bestslack[bv] = None, math.inf
        mybestedges[b] = list(bestedgeto.values())
        if slackto:
            bj = min(slackto, key=slackto.__getitem__)  # the first least
            bestedge[b], bestslack[b] = bestedgeto[bj], slackto[bj]
        else:
            bestedge[b], bestslack[b] = None, math.inf

    def expand_blossom(b: int, endstage: bool) -> None:
        # At the end of a stage, zero-dual sub-blossoms go too; appending to
        # ``gone`` while reading it reaches every depth without recursion.
        gone = [b]
        for e in gone:
            for s in childs[e]:
                blossomparent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and blossomdual[s] == 0:
                    gone.append(s)
                else:
                    for v in leaves(s):
                        inblossom[v] = s
        if (not endstage) and label[b] == 2:
            # Relabel the sub-blossoms along the alternating path from the
            # entry child to the base; the remaining ones become free.
            kids, edgs = childs[b], edges[b]
            entrychild = inblossom[labeledge[b][1]]
            j = kids.index(entrychild)
            if j & 1:
                j -= len(kids)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                q = edgs[j][1] if jstep == 1 else edgs[j - 1][0]
                label[w] = label[q] = 0
                assign_label(w, 2, v)
                j += jstep
                if jstep == 1:
                    v, w = edgs[j]
                else:
                    w, v = edgs[j - 1]
                j += jstep
            bw = kids[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw], bestslack[bw] = None, math.inf
            j += jstep
            while kids[j] != entrychild:
                bv = kids[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                if bv >= n:
                    for v in leaves(bv):
                        if label[v]:
                            break
                else:
                    v = bv
                if label[v]:
                    label[v] = 0
                    label[mate[blossombase[bv]]] = 0
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        for e in gone:
            del blossomdual[e]
            free.append(e)

    def augment_blossom(b: int, v: int) -> None:
        """Swap the matched and unmatched edges along the even path from v
        to the base in each blossom around v, so v becomes the base.  Each
        sub-blossom's swap touches only its own leaves, so they run off one
        stack in any order; the blossoms on v's own chain all take v."""
        stack = [(b, v)]
        while stack:
            top, v = stack.pop()
            t = v
            while t != top:
                b = blossomparent[t]
                kids, edgs = childs[b], edges[b]
                i = j = kids.index(t)
                if i & 1:
                    j -= len(kids)
                    jstep = 1
                else:
                    jstep = -1
                while j != 0:
                    j += jstep
                    s = kids[j]
                    if jstep == 1:
                        w, x = edgs[j]
                    else:
                        x, w = edgs[j - 1]
                    if s >= n:
                        stack.append((s, w))
                    j += jstep
                    s = kids[j]
                    if s >= n:
                        stack.append((s, x))
                    mate[w], mate[x] = x, w
                childs[b] = kids[i:] + kids[:i]
                edges[b] = edgs[i:] + edgs[:i]
                blossombase[b] = v
                t = b

    def augment_matching(v: int, w: int) -> None:
        for s, j in ((v, w), (w, v)):
            while 1:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    while -1 in mate:
        # One stage per augmentation.  The reset reads the vertices and the
        # live blossoms only: a freed id is rewritten when it is handed out.
        label[:n] = [0] * n
        labeledge[:n] = bestedge[:n] = [None] * n
        bestslack[:n] = [math.inf] * n
        for b in blossomdual:
            label[b] = 0
            labeledge[b] = bestedge[b] = mybestedges[b] = None
            bestslack[b] = math.inf
        queue[:] = []
        for v in range(n):
            if mate[v] == -1 and not label[inblossom[v]]:
                assign_label(v, 1, None)

        augmented = 0
        while 1:
            while queue and not augmented:
                v = queue.pop()
                dv, bv = dualvar[v], inblossom[v]
                for w, wvw in w2[v].items():
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    kslack = dv + dualvar[w] - wvw
                    if kslack <= 0:
                        if not label[bw]:
                            assign_label(w, 2, v)
                        elif label[bw] == 1:
                            base = scan_blossom(v, w)
                            if base is not None:
                                add_blossom(base, v, w)
                                bv = inblossom[v]  # v moved in
                            else:
                                augment_matching(v, w)
                                augmented = 1
                                break
                        elif not label[w]:
                            label[w] = 2
                            labeledge[w] = (v, w)
                    else:  # least slack to S per S-blossom and free vertex
                        if label[bw] == 1:
                            at = bv
                        elif not label[w]:
                            at = w
                        else:
                            continue
                        if kslack < bestslack[at]:
                            bestedge[at], bestslack[at] = (v, w), kslack

            if augmented:
                break

            # No augmenting path with the current duals; compute the
            # bottleneck among the standard dual adjustments.  There is no
            # delta-1 step: duals may go negative.  Every loop runs over the
            # vertices, then the blossoms in the order they were made, and
            # keeps the first least delta.
            deltatype, delta, deltaedge, deltablossom = -1, math.inf, None, None
            for v in range(n):
                d = bestslack[v]
                if d < delta and not label[inblossom[v]]:
                    delta, deltatype, deltaedge = d, 2, bestedge[v]

            for b in itertools.chain(range(n), blossomdual):
                e = bestedge[b]
                if blossomparent[b] == -1 and label[b] == 1 and e is not None:
                    d = bestslack[b] // 2
                    if d < delta:
                        delta, deltatype, deltaedge = d, 3, e

            for b, z in blossomdual.items():
                if blossomparent[b] == -1 and label[b] == 2 and z < delta:
                    delta, deltatype, deltablossom = z, 4, b
            if deltatype == -1:
                if odd:  # the exposed vertices' trees can grow no more
                    break
                raise InternalError("the graph has no perfect matching")

            for v in range(n):
                lbl = label[inblossom[v]]
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta
            for x in itertools.chain(range(n), blossomdual):
                e = bestedge[x]
                if e is not None:
                    bestslack[x] = dualvar[e[0]] + dualvar[e[1]] - w2[e[0]][e[1]]

            if deltatype in (2, 3):
                queue.append(deltaedge[0])
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        for b in list(blossomdual):
            if (b in blossomdual and blossomparent[b] == -1
                    and label[b] == 1 and blossomdual[b] == 0):
                expand_blossom(b, True)

    if odd and n > 1 and inblossom.count(inblossom[-1]) == n:
        # One blossom spans: rebase it so that the last point ends exposed.
        augment_blossom(inblossom[-1], n - 1)
        mate[-1] = -1
    verify_optimum(w2, dualvar, mate, blossomparent, blossomdual, childs,
                   edges, odd)

    state.mate = list(mate)
    state.dual = dualvar
    state.blossoms = [(leaves(b), z) for b, z in blossomdual.items()]
    return mate


def verify_optimum(w2: list[dict[int, int]], dual: list[int],
                   mate: list[int], blossomparent: list[int],
                   blossomdual: dict[int, int], childs: list, edges: list,
                   odd: bool) -> None:
    """Certify a finished solve by complementary slackness, or raise
    ``InternalError``.  ``w2`` holds twice the weights, ``dual`` the doubled
    vertex duals, ``mate`` each vertex's partner or -1, and the rest the
    blossom forest by node id: each node's parent or -1, each live
    blossom's z (listed children first, as the solver makes them), and each
    blossom's children and cycle edges.

    Every edge's slack, 2 z per blossom over both ends included, must be
    nonnegative, and zero on matched edges and, in the near-perfect search,
    on every blossom's cycle; a blossom with positive z must be full.  Each
    pair is checked once, at the blossom where its ends part.  The leaves
    are laid out so that each blossom is one run, its largest child last,
    and a leaf a of any other child meets the pairs parting there in the
    later children's run: the shorter of a's row, filtered by position, and
    that run, looked up in the row, is read.  Pairs in different top-level
    nodes part outside every blossom, at plain slack.
    """
    if blossomdual and min(blossomdual.values()) < 0:
        raise InternalError("blossom dual went negative")
    n = len(w2)
    size = [1] * len(blossomparent)  # leaves per node, children first
    for b in blossomdual:
        size[b] = sum(size[c] for c in childs[b])
    order, pos = [0] * n, [0] * n
    first = [0] * len(blossomparent)  # where each blossom's run starts
    zsum = [0] * len(blossomparent)  # 2 z over each blossom and its ancestors
    cuts = []  # (p, q, end, z2): order[p:q] meets order[q:end] at z2

    def place(nodes, p: int, end: int, z2: int) -> None:
        for c in nodes:
            if c >= n:
                first[c], q = p, p + size[c]
            else:
                order[p], pos[c], q = c, p, p + 1
            if q < end:
                cuts.append((p, q, end, z2))
            p = q

    place([x for x in itertools.chain(range(n), blossomdual)
           if blossomparent[x] == -1], 0, n, 0)
    for b in reversed(blossomdual):  # parents first
        up = blossomparent[b]
        z2 = zsum[b] = 2 * blossomdual[b] + (0 if up == -1 else zsum[up])
        kids = childs[b]
        big = max(range(len(kids)), key=lambda i: size[kids[i]])
        place(kids[:big] + kids[big + 1:] + [kids[big]],
              first[b], first[b] + size[b], z2)

    for p, q, end, z2 in cuts:
        run = None
        for a in order[p:q]:
            row, ya = w2[a], dual[a] + z2
            if len(row) <= end - q:
                for x, w in row.items():
                    if q <= pos[x] < end and ya + dual[x] < w:
                        raise InternalError("matching edge with negative slack")
            else:
                if run is None:
                    run = order[q:end]
                for x in run:
                    if x in row and ya + dual[x] < row[x]:
                        raise InternalError("matching edge with negative slack")
            m = mate[a]
            if (m != -1 and q <= pos[m] < end and m in row
                    and ya + dual[m] != row[m]):
                raise InternalError("matched edge with nonzero slack")
    for b, zb in blossomdual.items():
        if (zb > 0 or odd) and len(edges[b]) % 2 != 1:
            raise InternalError("odd blossom with even edge count")
        # each cycle edge joins two children, so its ends part at b
        if odd and any(dual[i] + dual[j] - w2[i][j] + zsum[b]
                       for i, j in edges[b]):
            raise InternalError("blossom cycle edge with nonzero slack")
        if zb > 0:
            for i, j in edges[b][1::2]:
                if mate[i] != j or mate[j] != i:
                    raise InternalError("positive blossom not full")


def greedy_start(cost: Sequence[Sequence[int]],
                 column: Sequence[int] | None = None) -> DualState:
    """Kolmogorov's Blossom V greedy initialization, under weight -4 cost.

    With near(i) the least cost[i][j] over j != i, the duals -4 near(i) are
    feasible, since 8 cost[i][j] >= 4 near(i) + 4 near(j), and a pair is
    tight iff cost[i][j] == near(i) == near(j).  Such pairs are matched in
    rank order while both ends are free.  Every dual is a multiple of 4, the
    exposed ones included, as ``max_weight_matching`` needs one parity.
    ``column``, if given, holds the costs of one more point, rank k, to
    the ranks of ``cost``."""
    k = len(cost)
    near = [min(row[:i] + row[i + 1:]) for i, row in enumerate(cost)]
    if column is not None:
        near = [*map(min, near, column), min(column)]
    mate = [-1] * len(near)
    for i in range(k):
        for j in range(i + 1, k):
            if (mate[i] == -1 and mate[j] == -1
                    and cost[i][j] == near[i] == near[j]):
                mate[i], mate[j] = j, i
        if (column is not None and mate[i] == -1 == mate[k]
                and column[i] == near[i] == near[k]):
            mate[i], mate[k] = k, i
    return DualState(mate, [-4 * c for c in near])


def matched_total(cost: Sequence[Sequence[int]], state: DualState) -> int:
    return sum(cost[i][j] for i, j in enumerate(state.mate) if i < j)


def tight_pairing(
    cost: Sequence[Sequence[int]], optimum: DualState,
) -> list[tuple[int, int]]:
    """The lexicographically smallest minimum-cost perfect matching, as
    sorted rank pairs, given ``optimum`` (read only): a minimum-cost perfect
    matching under weight -4 cost whose vertex duals bound every optimal
    pairing, as those of ``rooted_optimum`` do.

    Every optimal matching uses only pairs tight under the optimal duals;
    blossom duals are nonnegative, so in the optimum's units those pairs
    have y_i + y_j + 8 cost[i][j] <= 0.  The tie-break solves on the pairs
    within that bound and keeps the primary cost, which excludes the worse
    matchings among them, with a penalty B^(k-i) * j per pair (i < j the
    ranks, B > k^2) below one unit of it.  Summed penalties compare like
    sorted pair lists: matchings agreeing on all pairs with smaller
    endpoint below rank i both match rank i next, and the B^(k-i) term
    dominates every later position.
    """
    k = len(cost)
    y = optimum.dual
    B = k * k + 1
    scale = B ** (k + 1)
    pow_b = [B ** (k - i) for i in range(k)]
    mate = max_weight_matching(k, (
        (i, j, -(cost[i][j] * scale + pow_b[i] * j))
        for i in range(k) for j in range(i + 1, k)
        if y[i] + y[j] + 8 * cost[i][j] <= 0),
        DualState([-1] * k, [0] * k))
    pairs = [(i, j) for i, j in enumerate(mate) if i < j]
    if sum(cost[i][j] for i, j in pairs) != matched_total(cost, optimum):
        raise InternalError("tie-break pairing is not a minimum-cost matching")
    return pairs


def _rooted_solve(cost: Sequence[Sequence[int]], column: Sequence[int],
                  state: DualState) -> list[int]:
    """``exposure_sizes`` of the solve from ``state`` under weight -4 cost
    on the ranks of ``cost`` and a root point, rank k, at costs ``column``."""
    k = len(cost)
    max_weight_matching(k + 1, itertools.chain(
        ((i, j, -4 * cost[i][j]) for i in range(k) for j in range(i + 1, k)),
        ((i, k, -4 * c) for i, c in enumerate(column))), state)
    return exposure_sizes(state)


def rooted_optimum(cost: Sequence[Sequence[int]],
                   column: Sequence[int]) -> tuple[DualState, list[int]]:
    """A minimum-cost perfect matching on the ranks of ``cost``, on any
    table, and the ``exposure_sizes`` of one near-perfect solve with a root
    point, rank k, at costs ``column`` (a terminal's own row: a copy at hop
    0), from ``greedy_start``.  The root point ends exposed; its size is the
    optimum's cost, and it is dropped from the optimum's mates, duals and
    blossoms, as are the blossoms whose dual is zero."""
    k = len(cost)
    state = greedy_start(cost, column)
    sizes = _rooted_solve(cost, column, state)
    if state.mate.pop() != -1:
        raise InternalError("rooted solve left the root point matched")
    del state.dual[k]
    state.blossoms = [([v for v in leaves if v != k], z)
                      for leaves, z in state.blossoms if z]
    if matched_total(cost, state) != sizes[k]:
        raise InternalError("rooted solve's pairing does not cost its bound")
    return state, sizes


def exposure_sizes(state: DualState) -> list[int]:
    """After a near-perfect solve under weight -4 cost that spans: per
    point t, the least cost of a matching exposing t.  Twice a matching's
    weight is -8 times its cost, so each is (dual[t] - spent) / 8."""
    if not state.spans():
        raise InternalError("near-perfect solve left no spanning blossom")
    spent = sum(state.dual) + sum(z * (len(leaves) - 1)
                                  for leaves, z in state.blossoms)
    if any((spent - d) % 8 for d in state.dual):
        raise InternalError("a toggled size is not an integer")
    return [(d - spent) // 8 for d in state.dual]


def toggled_sizes(cost: Sequence[Sequence[int]], optimum: DualState,
                  column: Sequence[int]) -> list[int]:
    """``rooted_optimum``'s sizes at a root point at costs ``column``, from
    its ``optimum`` (read only): on a hop table nu((T ^ {root}) - {t}) per
    rank t and the root point.  A terminal root at rank r passes
    ``cost[r]``, a copy at hop 0: hops are metric, so a cheapest matching
    exposing another rank pairs r with its copy, and r's size is nu.  The
    search starts from the optimum's duals, each blossom's z added to its
    leaves' (feasible, all even), its mates that stay tight, and the root
    point exposed at the least feasible dual."""
    y = list(optimum.dual)
    for leaves, z in optimum.blossoms:
        for v in leaves:
            y[v] += z
    mate = [b if y[a] + y[b] + 8 * cost[a][b] == 0 else -1
            for a, b in enumerate(optimum.mate)]
    state = DualState([*mate, -1],
                      [*y, max(-8 * c - d for c, d in zip(column, y))])
    return _rooted_solve(cost, column, state)


def is_factor_critical(graph: Graph) -> bool:
    """True iff deleting any single vertex leaves a perfectly matchable graph:
    at once for n < 2 (yes) and other even n (no), else by one near-perfect
    search (Gallai's lemma)."""
    n = graph.n
    if n < 2 or n % 2 == 0:
        return n < 2
    state = DualState([-1] * n, [0] * n)
    max_weight_matching(n, [(u, v, 0) for u, v in graph.edges], state)
    return state.spans()


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
    if any(not _integral(w) or w < 0 for row in cost for w in row):
        raise StructuralInputError("matching weights must be nonnegative integers")
    return pts, cost


def _integral(w) -> bool:
    """``int(w) == w``, False where ``int`` fails: NaN, infinity, None."""
    try:
        return int(w) == w
    except (TypeError, ValueError, OverflowError):
        return False


def _optimum(cost: Sequence[Sequence[int]]) -> DualState:
    """The rooted optimum, its root a copy of rank 0; no points, no pairs."""
    return rooted_optimum(cost, cost[0])[0] if cost else DualState([], [])


def min_weight_perfect_matching_value(points: Sequence[int], weight: WeightFn) -> int:
    """Optimal total weight only (no canonical pairing)."""
    _, cost = _cost_table(points, weight)
    return matched_total(cost, _optimum(cost))


def min_weight_perfect_matching(
    points: Sequence[int], weight: WeightFn,
) -> list[tuple[int, int]]:
    """Perfect matching of ``points`` minimizing total ``weight``.

    ``weight`` must be a symmetric nonnegative-integer function.  Among all
    optimal matchings the lexicographically smallest sorted pair list is
    returned, so equal inputs give identical output: one value solve, then
    the tie-break of ``tight_pairing``.
    """
    pts, cost = _cost_table(points, weight)
    return [(pts[i], pts[j]) for i, j in tight_pairing(cost, _optimum(cost))]
