"""Tensor products of ptableaux and the Littlewood-Richardson rule."""
from __future__ import annotations

from .bijections import matrix_from_ptableau, word_from_ptableau
from .core import (
    ParsedWord,
    PTableau,
    Word,
    _trimmed,
    is_partition_shaped,
    shape,
)
from .errors import RankMismatch, RowMismatch, ShapeError
from .graph import CrystalGraph


def tensor_words(pw: ParsedWord, pw2: ParsedWord) -> ParsedWord:
    """Concatenation, keeping both parsings and cutting at the junction."""
    if pw.rank != pw2.rank:
        raise RankMismatch("words have different ranks")
    k = len(pw.word)
    letters = pw.word.letters + pw2.word.letters
    cuts = pw.cuts + (k,) + tuple(k + c for c in pw2.cuts)
    return ParsedWord(Word(pw.rank, letters), cuts)


def tensor(left: PTableau, right: PTableau) -> PTableau:
    """Append the right factor's rows (content shifted up by the left factor's
    bound) to the right of the left factor's rows, re-justifying."""
    if left.rows != right.rows:
        raise RowMismatch("tensor operands have different row counts")
    offset = left.content_bound
    rows_values = [
        lrow + [v + offset for v in rrow]
        for lrow, rrow in zip(left.row_values(), right.row_values())
    ]
    return PTableau._from_rows(rows_values, offset + right.content_bound)


def is_highest_weight_tensor(left: PTableau, right: PTableau) -> bool:
    return is_partition_shaped(tensor(left, right))


def highest_weight_ptableau(parts, rows: int | None = None) -> PTableau:
    """The ptableau whose i-th row holds parts[i] copies of i (the canonical
    highest weight node of its component)."""
    parts = tuple(parts)
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ShapeError(f"{parts} is not a partition")
    n = len(parts) if rows is None else rows
    if rows is not None and rows < len(parts):
        raise ShapeError("rows below partition length")
    rows_values = [[i + 1] * parts[i] if i < len(parts) else [] for i in range(n)]
    bound = sum(1 for p in parts if p > 0)
    return PTableau._from_rows(rows_values, bound)


def satisfies_word_condition(tab: PTableau) -> bool:
    """True iff reversing each factor of the underlying word stacks into a
    valid semistandard tableau (one factor per row)."""
    factors = word_from_ptableau(tab).factors
    rows = [tuple(reversed(f)) for f in factors]
    for a, b in zip(rows, rows[1:]):
        if len(b) > len(a):
            return False
    for row in rows:
        if any(x > y for x, y in zip(row, row[1:])):
            return False
    for r in range(1, len(rows)):
        for c, v in enumerate(rows[r]):
            if v <= rows[r - 1][c]:
                return False
    return True


def word_condition_counting(tab: PTableau) -> bool:
    """Counting variant: for every i and k >= 0, the i's in rows i..i+k are at
    least as many as the (i+1)'s in rows i+1..i+k+1.

    Strictly weaker than :func:`satisfies_word_condition`; kept so the two
    can be compared side by side.
    """
    m = matrix_from_ptableau(tab).entries  # m[v - 1][r - 1]: v's in row r
    for i in range(1, tab.content_bound):
        for k in range(tab.rows):
            if sum(m[i - 1][i - 1 : i + k]) < sum(m[i][i : i + k + 1]):
                return False
    return True


# ---------------------------------------------------------------------------
# Littlewood-Richardson


class SkewShape:
    """A pair of partitions outer/inner with inner contained in outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner):
        outer = tuple(outer)
        inner = tuple(inner) + (0,) * (len(outer) - len(inner))
        if len(inner) > len(outer):
            raise ShapeError("inner partition longer than outer")
        if any(a < b for a, b in zip(outer, outer[1:])):
            raise ShapeError(f"{outer} is not a partition")
        if any(a < b for a, b in zip(inner, inner[1:])):
            raise ShapeError(f"{inner} is not a partition")
        if any(m > l for l, m in zip(outer, inner)):
            raise ShapeError("inner partition not contained in outer")
        self.outer = outer
        self.inner = inner

    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def cells(self):
        return [
            (r, c)
            for r in range(len(self.outer))
            for c in range(self.inner[r], self.outer[r])
        ]

    def __eq__(self, other):
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape({self.outer}, {self.inner})"


class LRFilling:
    """A semistandard filling of a skew shape whose reverse reading word
    (right to left, top to bottom) is Yamanouchi."""

    __slots__ = ("shape", "entries")

    def __init__(self, skew: SkewShape, entries):
        self.shape = skew
        self.entries = tuple(tuple(row) for row in entries)

    def reading_word(self):
        out = []
        for row in self.entries:
            out.extend(v for v in reversed(row) if v is not None)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, LRFilling)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.shape, self.entries))

    def __repr__(self):
        rows = [
            " ".join("." if v is None else str(v) for v in row)
            for row in self.entries
        ]
        return f"LRFilling({' / '.join(rows)})"


def classical_lr_fillings(lam, mu, nu):
    """All Littlewood-Richardson fillings of lam/mu with content nu.

    Brute-force enumeration, independent of the crystal machinery: fill the
    skew cells in reverse reading order, keeping rows weakly increasing,
    columns strictly increasing, and every reading-word prefix Yamanouchi.
    """
    skew = SkewShape(lam, mu)
    nu = tuple(nu)
    if any(a < b for a, b in zip(nu, nu[1:])) or any(a < 0 for a in nu):
        raise ShapeError(f"{nu} is not a partition")
    if skew.size() != sum(nu):
        raise ShapeError("content size does not match skew shape size")
    outer, inner = skew.outer, skew.inner
    n_rows = len(outer)
    width = outer[0] if outer else 0
    order = [
        (r, c)
        for r in range(n_rows)
        for c in range(outer[r] - 1, inner[r] - 1, -1)
    ]
    grid = [[None] * width for _ in range(n_rows)]
    remaining = list(nu)
    prefix = [0] * (len(nu) + 2)
    results = []

    def feasible(r, c, v):
        if remaining[v - 1] == 0:
            return False
        if c + 1 < outer[r] and v > grid[r][c + 1]:
            return False
        # rows above are complete, so a skew cell above is already filled
        if r > 0 and c >= inner[r - 1] and v <= grid[r - 1][c]:
            return False
        if v > 1 and prefix[v] + 1 > prefix[v - 1]:
            return False
        return True

    def place(k):
        if k == len(order):
            results.append(
                LRFilling(skew, [row[:] for row in grid])
            )
            return
        r, c = order[k]
        for v in range(1, len(nu) + 1):
            if not feasible(r, c, v):
                continue
            grid[r][c] = v
            remaining[v - 1] -= 1
            prefix[v] += 1
            place(k + 1)
            prefix[v] -= 1
            remaining[v - 1] += 1
            grid[r][c] = None

    place(0)
    return results


def lr_table(graph_mu: CrystalGraph, graph_nu: CrystalGraph):
    """Map each partition lam to the number of nodes T of the nu-component
    with (highest weight of mu-component) tensor T partition shaped of shape
    lam."""
    t_mu_max = graph_mu.highest_weight_node
    if not isinstance(t_mu_max, PTableau):
        raise TypeError("lr computations require ptableau graphs")
    if graph_mu.rank != graph_nu.rank:
        raise RankMismatch("graphs have different ranks")
    table: dict = {}
    for node in graph_nu.nodes:
        prod = tensor(t_mu_max, node)
        if is_partition_shaped(prod):
            table[shape(prod)] = table.get(shape(prod), 0) + 1
    return table


def lr_coefficient(graph_mu: CrystalGraph, graph_nu: CrystalGraph, lam) -> int:
    """Multiplicity of the lam-irreducible inside mu-component (x) nu-component."""
    return lr_table(graph_mu, graph_nu).get(_trimmed(lam), 0)
