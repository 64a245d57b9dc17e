"""Input generators and answer checks that do not use the ptableaux library.

Everything here works on plain Python data: words are tuples of letters,
partitions are tuples of parts, and grids are tuples of rows holding ints
or None.  The checks read the library's outputs but never call it, so a
defect in the library cannot hide itself in its own oracle.

Conventions (pinned against the library by ``selftest.py``):

* A word's crystal component has the highest weight given by the shape of
  the row-insertion tableau of the reversed word (so its first part is the
  longest weakly decreasing subword, the library's width law).
* A word is highest weight iff every prefix has at least as many i's as
  (i+1)'s; a tensor u_mu (x) w of the highest weight of mu with w is
  highest weight iff mu plus the content of every prefix of w is a
  partition.
"""
from __future__ import annotations

from math import factorial


class CheckFailed(Exception):
    """An output disagrees with the oracle."""


class KnownDefect(CheckFailed):
    """An output is wrong in the way a named, already reported defect predicts."""

    def __init__(self, defect: str, detail: str):
        super().__init__(f"{defect}: {detail}")
        self.defect = defect


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# partitions and counting formulas


def trim(parts) -> tuple:
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def pad(parts, n: int) -> tuple:
    return tuple(parts) + (0,) * (n - len(parts))


def partitions(total: int, max_parts: int, max_part: int | None = None):
    """Partitions of ``total`` into at most ``max_parts`` parts, largest first."""
    max_part = total if max_part is None else max_part
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in partitions(total - part, max_parts - 1, part):
            yield (part,) + rest


def _hooks(lam):
    lam = trim(lam)
    conj = [sum(1 for p in lam if p > c) for c in range(lam[0])] if lam else []
    return [
        (r, c, lam[r] - c + conj[c] - r - 1)
        for r in range(len(lam))
        for c in range(lam[r])
    ]


def ssyt_count(lam, n: int) -> int:
    """Semistandard tableaux of shape lam with entries <= n (hook-content formula)."""
    num = den = 1
    for r, c, hook in _hooks(lam):
        num *= n + c - r
        den *= hook
    return num // den


def syt_count(lam) -> int:
    """Standard tableaux of shape lam (hook length formula)."""
    den = 1
    for _, _, hook in _hooks(lam):
        den *= hook
    return factorial(sum(lam)) // den


# ---------------------------------------------------------------------------
# words


def insertion_shape(letters) -> tuple:
    """Shape of the row-insertion tableau of ``letters``."""
    rows: list[list[int]] = []
    for x in letters:
        for row in rows:
            for k, y in enumerate(row):
                if y > x:
                    row[k], x = x, y
                    break
            else:
                row.append(x)
                break
        else:
            rows.append([x])
    return tuple(len(row) for row in rows)


def highest_weight_shape(letters) -> tuple:
    """Highest weight of the crystal component holding the word ``letters``."""
    return insertion_shape(letters[::-1])


def content(letters, n: int) -> tuple:
    counts = [0] * n
    for a in letters:
        counts[a - 1] += 1
    return tuple(counts)


def is_lattice(letters, start=()) -> bool:
    """``start`` plus the content of every prefix stays a partition."""
    counts = list(start) + [0] * (max(letters, default=0) + 1)
    for a in letters:
        counts[a - 1] += 1
        if a > 1 and counts[a - 1] > counts[a - 2]:
            return False
    return True


def random_word_of_shape(rng, n: int, lam) -> tuple:
    """A uniformly random word of length |lam| over [n] in a component of
    highest weight lam (rejection sampling)."""
    k = sum(lam)
    lam = tuple(lam)
    while True:
        letters = tuple(rng.randint(1, n) for _ in range(k))
        if highest_weight_shape(letters) == lam:
            return letters


def random_lattice_word(rng, n: int, k: int, start=()) -> tuple:
    """A random word w of length k with ``start`` (x) w highest weight."""
    counts = list(pad(start, n))
    letters = []
    for _ in range(k):
        allowed = [
            a for a in range(1, n + 1) if a == 1 or counts[a - 1] < counts[a - 2]
        ]
        a = rng.choice(allowed)
        counts[a - 1] += 1
        letters.append(a)
    return tuple(letters)


def random_parsing(rng, letters, p_cut: float, p_empty: float, trailing: bool = True):
    """Factors of a random parsing: cuts at every ascent, optional cuts
    elsewhere, and with probability ``p_empty`` one empty factor at a random
    place, the start included and the end too unless ``trailing`` is false."""
    factors = [[letters[0]]] if letters else [[]]
    for prev, a in zip(letters, letters[1:]):
        if prev < a or rng.random() < p_cut:
            factors.append([a])
        else:
            factors[-1].append(a)
    if rng.random() < p_empty:
        factors.insert(rng.randint(0, len(factors) - (not trailing)), [])
    return [tuple(f) for f in factors]


def parsing_text(factors) -> str:
    return "|".join("".join(str(a) for a in f) for f in factors)


def parsing_matrix(factors, n: int) -> tuple:
    """Entry (s, j) counts the letters j in factor s."""
    return tuple(content(f, n) for f in factors)


# ---------------------------------------------------------------------------
# grids


def row_counts(grid) -> tuple:
    return tuple(sum(1 for v in row if v is not None) for row in grid)


def is_partition_grid(grid) -> bool:
    """Each row is a filled prefix and the prefixes weakly shrink downward."""
    prev = None
    for row in grid:
        filled = sum(1 for v in row if v is not None)
        if any(v is None for v in row[:filled]):
            return False
        if prev is not None and filled > prev:
            return False
        prev = filled
    return True


def is_semistandard_grid(grid) -> bool:
    """Partition shaped, rows weakly increasing, columns strictly increasing."""
    if not is_partition_grid(grid):
        return False
    rows = [[v for v in row if v is not None] for row in grid]
    for row in rows:
        if any(a > b for a, b in zip(row, row[1:])):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(a >= b for a, b in zip(upper, lower)):
            return False
    return True


def grid_content(grid, bound: int) -> tuple:
    counts = [0] * bound
    for row in grid:
        for v in row:
            if v is not None:
                counts[v - 1] += 1
    return tuple(counts)


def parse_label(label: str):
    """Grid of a serialized ptableau node: rows joined by '/', '.' for blanks."""
    return tuple(
        tuple(None if tok == "." else int(tok) for tok in row.split())
        for row in label.split("/")
    )


def check_crystal_edges(weights, edges, n: int, hw: int) -> None:
    """Lowering edges move one box from row i to row i+1, each node has at
    most one i-edge out and in, and every node is reachable from ``hw``."""
    out_seen = set()
    in_seen = set()
    adjacent: list[list[int]] = [[] for _ in weights]
    for u, i, v in edges:
        expect(1 <= i < n, f"edge index {i} outside [1..{n - 1}]")
        expected = list(weights[u])
        expected[i - 1] -= 1
        expected[i] += 1
        expect(tuple(expected) == weights[v], f"f{i} edge {u}->{v} has wrong weights")
        expect((u, i) not in out_seen, f"two f{i} edges leave node {u}")
        expect((v, i) not in in_seen, f"two f{i} edges enter node {v}")
        out_seen.add((u, i))
        in_seen.add((v, i))
        adjacent[u].append(v)
        adjacent[v].append(u)
    reached = {hw}
    stack = [hw]
    while stack:
        for v in adjacent[stack.pop()]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    expect(len(reached) == len(weights), "graph is not connected")
