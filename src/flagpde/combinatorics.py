"""Small exact combinatorial helpers shared across modules."""

from __future__ import annotations

import math
from typing import Iterator


def multinomial(parts) -> int:
    """(p1 + ... + pm)! / (p1! ... pm!) computed without large intermediates."""
    total = 0
    out = 1
    for p in parts:
        total += p
        out *= math.comb(total, p)
    return out


def falling(m: int, k: int) -> int:
    """m (m-1) ... (m-k+1); zero when k exceeds a non-negative m."""
    out = 1
    for j in range(k):
        out *= m - j
    return out


def tuples_with_sum(length: int, total: int) -> Iterator[tuple]:
    """All non-negative integer tuples of the given length summing to total."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in tuples_with_sum(length - 1, total - first):
            yield (first,) + rest


def tuples_with_sum_at_most(length: int, cap: int) -> Iterator[tuple]:
    for s in range(cap + 1):
        yield from tuples_with_sum(length, s)

