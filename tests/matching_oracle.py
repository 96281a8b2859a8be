"""Test-only matching oracles.

``min_weight_perfect_matching_dp`` is an independent bitmask dynamic program:
it shares no code with the blossom solver in ``connjoin.matching``, so the
matching tests can cross-check the solver's values and tie-breaks against it.
``min_weight_perfect_matching_encoded`` is the reference pairing above the
DP's reach: one blossom solve on the complete graph under the encoded
lexicographic weights, without the library's tight-edge restriction.
``verify_optimum_by_chains`` is the solver's end-of-solve certificate as a
per-edge walk down both ends' chains of enclosing blossoms, the reference
for ``connjoin.matching.verify_optimum``.  ``perfect_optimum`` is a perfect
solve on the ranks alone, the reference optimum beside the library's
rooted search (``connjoin.matching.rooted_optimum``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from connjoin import matching
from connjoin.errors import InternalError, OracleScaleError, StructuralInputError
from connjoin.matching import DualState, max_weight_matching

WeightFn = Callable[[int, int], int]


def min_weight_perfect_matching_dp(
    points: Sequence[int], weight: WeightFn,
) -> tuple[int, list[tuple[int, int]]]:
    """Independent subset-DP solver (cross-check oracle), k <= 16.

    Returns ``(total, pairs)`` with the same lexicographic tie-break as
    ``min_weight_perfect_matching``.
    """
    pts = sorted(points)
    k = len(pts)
    if k % 2 != 0:
        raise StructuralInputError("perfect matching needs an even point count")
    if k > 16:
        raise OracleScaleError(f"subset DP limited to 16 points, got {k}")
    if k == 0:
        return 0, []
    w = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            w[a][b] = w[b][a] = weight(pts[a], pts[b])
    full = (1 << k) - 1
    INF = float("inf")
    dp = [INF] * (1 << k)
    dp[0] = 0
    for mask in range(1, 1 << k):
        if bin(mask).count("1") % 2:
            continue
        a = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << a)
        best = INF
        bb = rest
        while bb:
            b = (bb & -bb).bit_length() - 1
            bb &= bb - 1
            cand = dp[rest ^ (1 << b)] + w[a][b]
            if cand < best:
                best = cand
        dp[mask] = best
    pairs: list[tuple[int, int]] = []
    mask = full
    while mask:
        a = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << a)
        bb = rest
        while bb:
            b = (bb & -bb).bit_length() - 1
            bb &= bb - 1
            if dp[rest ^ (1 << b)] + w[a][b] == dp[mask]:
                pairs.append((pts[a], pts[b]))
                mask = rest ^ (1 << b)
                break
        else:
            raise InternalError("DP reconstruction failed")
    return int(dp[full]), pairs


def min_weight_perfect_matching_encoded(
    points: Sequence[int], weight: WeightFn,
) -> list[tuple[int, int]]:
    """The lexicographically smallest minimum-weight perfect matching, from a
    single perfect solve over all pairs from zero duals.

    Pair i < j (ranks) costs w * B^(k+1) + B^(k-i) * j with B > k^2: the
    penalty stays below one unit of w and compares like sorted pair lists.
    The solve maximizes the negated costs.
    """
    pts = sorted(points)
    k = len(pts)
    if k == 0:
        return []
    B = k * k + 1
    encoded = {(i, j): weight(pts[i], pts[j]) * B ** (k + 1) + B ** (k - i) * j
               for i in range(k) for j in range(i + 1, k)}
    mate = max_weight_matching(k, [(i, j, -w) for (i, j), w in encoded.items()],
                               DualState([-1] * k, [0] * k))
    return [(pts[i], pts[j]) for i, j in enumerate(mate) if i < j]


def perfect_optimum(cost: Sequence[Sequence[int]]) -> DualState:
    """An optimal state of the minimum-cost perfect matching on the ranks of
    the symmetric table ``cost``: the maximum-weight perfect matching under
    weight -4 cost, solved from ``greedy_start(cost)``.  Its duals are even
    once each blossom's z is added to its leaves', so the state starts
    ``toggled_sizes`` as it is.  The solver is read off the module, so a
    test that patches ``matching.max_weight_matching`` sees this solve."""
    k = len(cost)
    state = matching.greedy_start(cost)
    matching.max_weight_matching(k, [(i, j, -4 * cost[i][j]) for i in range(k)
                                     for j in range(i + 1, k)], state)
    return state


def verify_optimum_by_chains(w2, dual, mate, blossomparent, blossomdual,
                             childs, edges, odd) -> None:
    """``verify_optimum`` on the same arguments, each edge's blossom duals
    summed down the common prefix of its ends' chains of blossoms."""
    n = len(w2)
    if blossomdual and min(blossomdual.values()) < 0:
        raise InternalError("blossom dual went negative")
    chain = {}  # each vertex's enclosing blossoms, outermost first
    for v in range(n):
        c = [v]
        while blossomparent[c[-1]] != -1:
            c.append(blossomparent[c[-1]])
        c.reverse()
        chain[v] = c

    def full_slack(i: int, j: int) -> int:  # blossom duals included
        s = dual[i] + dual[j] - w2[i][j]
        for bi, bj in zip(chain[i], chain[j]):
            if bi != bj:
                break
            s += 2 * blossomdual[bi]
        return s

    for i, j in ((i, j) for i in range(n) for j in w2[i] if i < j):
        s = full_slack(i, j)
        if s < 0:
            raise InternalError("matching edge with negative slack")
        if (mate[i] == j or mate[j] == i) and s != 0:
            raise InternalError("matched edge with nonzero slack")
    for b, zb in blossomdual.items():
        if (zb > 0 or odd) and len(edges[b]) % 2 != 1:
            raise InternalError("odd blossom with even edge count")
        if odd and any(full_slack(i, j) for i, j in edges[b]):
            raise InternalError("blossom cycle edge with nonzero slack")
        if zb > 0:
            for i, j in edges[b][1::2]:
                if mate[i] != j or mate[j] != i:
                    raise InternalError("positive blossom not full")
