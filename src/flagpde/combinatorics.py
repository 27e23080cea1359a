"""Small exact combinatorial helpers shared across modules."""

from __future__ import annotations

import itertools
import operator
from typing import Iterator


def falling(m: int, k: int) -> int:
    """m (m-1) ... (m-k+1); zero when k exceeds a non-negative m."""
    out = 1
    for j in range(k):
        out *= m - j
    return out


def tuples_with_sum(length: int, total: int) -> Iterator[tuple]:
    """All non-negative integer tuples of the given length summing to total,
    in lexicographic order.

    Stars and bars: the partial sums d_1 <= ... <= d_(length-1) of a tuple
    are a multiset drawn from 0..total, and the tuple is the differences of
    (0, d_1, ..., d_(length-1), total).  ``combinations_with_replacement``
    lists those multisets in lexicographic order, which is the tuples'.
    """
    if length == 0 or total < 0:
        if length == 0 == total:
            yield ()
        return
    sub, head, tail = operator.sub, (0,), (total,)
    for cuts in itertools.combinations_with_replacement(range(total + 1), length - 1):
        yield tuple(map(sub, cuts + tail, head + cuts))


def tuples_with_sum_at_most(length: int, cap: int) -> Iterator[tuple]:
    """The tuples of each sum 0..cap in turn; of length 0, sum 0 alone."""
    for s in range(cap + 1 if length else min(cap, 0) + 1):
        yield from tuples_with_sum(length, s)

