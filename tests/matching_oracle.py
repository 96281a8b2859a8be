"""Test-only matching oracle: an independent bitmask dynamic program.

It shares no code with the blossom solver in ``connjoin.matching``, so the
matching tests can cross-check the solver's values and tie-breaks against it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from connjoin.errors import InternalError, OracleScaleError, StructuralInputError

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
