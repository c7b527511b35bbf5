"""Reference oracles for edit distance; not part of the package.

`edit_distance` and `align_pairs` are the two DPs csasr shipped before they
were folded into `metrics.align`, kept verbatim so
test_metrics_differential.py can demand exact equality with them.
`recursive_distance` is the memoized recursion that test_metrics.py and
test_acceptance.py check every distance against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


def edit_distance(a: Sequence, b: Sequence) -> tuple[int, int, int, int]:
    """Unit-cost edit distance from reference a to hypothesis b.

    Returns (distance, substitutions, insertions, deletions). Ties in the
    backtrace prefer substitution over insertion over deletion.
    """
    n, m = len(a), len(b)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row, above = dist[i], dist[i - 1]
        ai = a[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                above[j - 1] + (ai != b[j - 1]),
                row[j - 1] + 1,
                above[j] + 1,
            )

    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]) == here:
            subs += a[i - 1] != b[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j - 1] + 1 == here:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return dist[n][m], subs, ins, dels


def align_pairs(a: Sequence, b: Sequence) -> list[tuple[int, int]]:
    """Index pairs (i, j) matched or substituted by the minimal alignment."""
    n, m = len(a), len(b)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dist[i][j] = min(
                dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                dist[i][j - 1] + 1,
                dist[i - 1][j] + 1,
            )
    pairs = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]) == here:
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j - 1] + 1 == here:
            j -= 1
        else:
            i -= 1
    pairs.reverse()
    return pairs


def recursive_distance(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance by memoized recursion over suffixes."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            rec(i + 1, j + 1) + (a[i] != b[j]),
            rec(i, j + 1) + 1,
            rec(i + 1, j) + 1,
        )

    return rec(0, 0)
