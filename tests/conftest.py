"""Shared enumeration helpers and independent counting oracles."""
from contextlib import contextmanager
from itertools import product
from unittest.mock import patch

from ptableaux import (
    PTableau,
    Word,
    component,
    to_lowest_weight,
    validate_ptableau,
    weight,
)
from ptableaux import graph


def all_words(rank, length):
    return [
        Word(rank, letters)
        for letters in product(range(1, rank + 1), repeat=length)
    ]


def all_words_upto(rank, max_length, min_length=1):
    out = []
    for k in range(min_length, max_length + 1):
        out.extend(all_words(rank, k))
    return out


def partitions(total, max_parts):
    """All partitions of ``total`` into at most ``max_parts`` parts."""
    if total == 0:
        return [()]
    out = []

    def build(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for part in range(min(remaining, max_part), 0, -1):
            build(remaining - part, part, prefix + [part])

    build(total, total, [])
    return out


def ssyt_fillings(shape, bound):
    """All semistandard fillings of a partition shape with entries <= bound.

    Brute-force oracle, independent of the library's crystal machinery.
    """
    shape = tuple(s for s in shape if s > 0)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = [[0] * s for s in shape]
    results = []

    def fill(k):
        if k == len(cells):
            results.append([row[:] for row in grid])
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, bound + 1):
            grid[r][c] = v
            fill(k + 1)
        grid[r][c] = 0

    fill(0)
    return results


def ssyt_count(shape, bound):
    return len(ssyt_fillings(shape, bound))


def syt_count(shape):
    """Standard Young tableaux of a partition shape, by brute force."""
    shape = tuple(s for s in shape if s > 0)
    n = sum(shape)
    count = 0
    heights = [0] * (shape[0] if shape else 0)
    row_len = [0] * len(shape)

    def place(value):
        nonlocal count
        if value > n:
            count += 1
            return
        for r in range(len(shape)):
            c = row_len[r]
            if c < shape[r] and (r == 0 or row_len[r - 1] > c):
                row_len[r] += 1
                place(value + 1)
                row_len[r] -= 1

    place(1)
    return count


def ssyt_as_ptableau(filling, rows, bound=None):
    """Embed an SSYT (list of rows) as a partition-shaped ptableau."""
    width = len(filling[0]) if filling else 0
    grid = [
        [filling[r][c] if r < len(filling) and c < len(filling[r]) else None
         for c in range(width)]
        for r in range(rows)
    ]
    return validate_ptableau(grid, bound)


def tab(text, bound=None) -> PTableau:
    return PTableau.from_text(text, bound)


@contextmanager
def skeleton_cache(nodes=None):
    """Run the block on a fresh, empty skeleton cache bounded by ``nodes``
    (the library's bound when None; 0 keeps nothing, so every component is
    searched cold).  Yields the cache."""
    bound = graph._CACHE_NODES if nodes is None else nodes
    with patch.object(graph, "_skeletons", graph._Skeletons()):
        with patch.object(graph, "_CACHE_NODES", bound):
            yield graph._skeletons


def skeleton_key(seed):
    """The cache key of ``seed``'s component: its rank and the weight of its
    lowest weight."""
    low = to_lowest_weight(seed)[0]
    return (low.rows if isinstance(low, PTableau) else low.rank), weight(low)


def record_skeleton(seed):
    """Build ``seed``'s component twice, which records its skeleton, and
    return the key it is stored under."""
    component(seed)
    component(seed)
    return skeleton_key(seed)
