"""Crystal raising/lowering operators on words and ptableaux.

Word operators follow the convention in which, reading left to right,
raising acts at the first position achieving the maximal running count and
lowering at the last.

A ptableau operator moves one value between rows i and i+1.  Raising takes
the last entry of row i+1 in the left-justified two-row restriction that
has a blank above it; lowering takes the first entry of row i in the
right-justified restriction that has a blank below it.  One copy of that
value then moves to the other row's content and the result is packed once:
the canonical form depends only on the content of each row, so where the
cell lands inside its new row never has to be computed.  The two models
commute through the word-to-ptableau bijection.
"""
from __future__ import annotations

from .core import (
    ParsedWord,
    PTableau,
    Word,
    _rotate_grid,
    _row_values,
    is_anti_partition_shaped,
    is_partition_shaped,
    restrict,
    right_justify,
)
from .errors import InternalInvariantError


def _check_index(i: int, rank: int):
    if not 1 <= i <= rank - 1:
        raise ValueError(f"operator index {i} outside [1..{rank - 1}]")


# ---------------------------------------------------------------------------
# word operators


def _scan(word, i: int, raising: bool):
    """The bracket scan for index i, shared by the operators and epsilon/phi.

    Raising reads left to right, and the running count at a position is the
    number of (i+1)'s up to it minus the number of i's strictly before it;
    lowering reads right to left with i and i+1 swapped.  Returns the plain
    word, the largest running count (at least 0; it is epsilon_i when
    raising and phi_i when lowering) and the first position in reading
    order that reaches it, or None when that count is 0.
    """
    if isinstance(word, ParsedWord):
        word = word.word
    _check_index(i, word.rank)
    letters = word.letters
    if raising:
        order, plus, minus = range(len(letters)), i + 1, i
    else:
        order, plus, minus = range(len(letters) - 1, -1, -1), i, i + 1
    best, best_j, cur, prev = 0, None, 0, 0
    for j in order:
        a = letters[j]
        cur += (a == plus) - prev
        prev = a == minus
        if cur > best:
            best, best_j = cur, j
    return word, best, best_j


def word_raising(word, i: int):
    """Change the selected i+1 into an i, or None when undefined."""
    plain, _, j = _scan(word, i, True)
    if j is None:
        return None
    if plain.letters[j] != i + 1:
        raise InternalInvariantError("raising selected a letter that is not i+1")
    out = Word(plain.rank, plain.letters[:j] + (i,) + plain.letters[j + 1 :])
    return ParsedWord(out, word.cuts) if plain is not word else out


def word_lowering(word, i: int):
    """Change the selected i into an i+1, or None when undefined."""
    plain, _, j = _scan(word, i, False)
    if j is None:
        return None
    if plain.letters[j] != i:
        raise InternalInvariantError("lowering selected a letter that is not i")
    out = Word(plain.rank, plain.letters[:j] + (i + 1,) + plain.letters[j + 1 :])
    return ParsedWord(out, word.cuts) if plain is not word else out


def word_epsilon(word, i: int) -> int:
    return _scan(word, i, True)[1]


def word_phi(word, i: int) -> int:
    return _scan(word, i, False)[1]


# ---------------------------------------------------------------------------
# ptableau operators


def _moved(tab: PTableau, value: int, from_row: int, to_row: int) -> PTableau:
    """Move one copy of ``value`` between the 0-based rows, re-canonicalized."""
    rows_values = tab.row_values()
    rows_values[from_row].remove(value)
    rows_values[to_row].append(value)
    return PTableau._from_rows(rows_values, tab.content_bound)


def ptab_raising(tab: PTableau, i: int):
    """Move the last entry of row i+1 of the restriction with a blank above
    it into row i."""
    _check_index(i, tab.rows)
    top, bottom = restrict(tab, i).grid
    for a, b in zip(reversed(top), reversed(bottom)):
        if a is None and b is not None:
            return _moved(tab, b, i, i - 1)
    return None


def ptab_lowering(tab: PTableau, i: int):
    """Move the first entry of row i of the right-justified restriction with
    a blank below it into row i+1."""
    _check_index(i, tab.rows)
    top, bottom = right_justify(restrict(tab, i).grid)
    for a, b in zip(top, bottom):
        if a is not None and b is None:
            return _moved(tab, a, i - 1, i)
    return None


def ptab_epsilon(tab: PTableau, i: int) -> int:
    """Blanks in row i of the two-row restriction."""
    _check_index(i, tab.rows)
    two = restrict(tab, i)
    return two.cols - sum(1 for v in two.grid[0] if v is not None)


def ptab_phi(tab: PTableau, i: int) -> int:
    """Blanks in row i+1 of the two-row restriction."""
    _check_index(i, tab.rows)
    two = restrict(tab, i)
    return two.cols - sum(1 for v in two.grid[1] if v is not None)


# ---------------------------------------------------------------------------
# dispatch over both models


def _rank(obj) -> int:
    return obj.rows if isinstance(obj, PTableau) else obj.rank


def raising_operator(obj, i: int):
    if isinstance(obj, PTableau):
        return ptab_raising(obj, i)
    return word_raising(obj, i)


def lowering_operator(obj, i: int):
    if isinstance(obj, PTableau):
        return ptab_lowering(obj, i)
    return word_lowering(obj, i)


def epsilon(obj, i: int) -> int:
    if isinstance(obj, PTableau):
        return ptab_epsilon(obj, i)
    return word_epsilon(obj, i)


def phi(obj, i: int) -> int:
    if isinstance(obj, PTableau):
        return ptab_phi(obj, i)
    return word_phi(obj, i)


def is_highest_weight(obj) -> bool:
    """All raising operators return None; for ptableaux, partition shaped."""
    if isinstance(obj, PTableau):
        return is_partition_shaped(obj)
    return all(
        word_raising(obj, i) is None for i in range(1, obj.rank)
    )


def is_lowest_weight(obj) -> bool:
    if isinstance(obj, PTableau):
        return is_anti_partition_shaped(obj)
    return all(
        word_lowering(obj, i) is None for i in range(1, obj.rank)
    )


def _exhaust(obj, op):
    """Apply ``op`` (smallest defined index first) until no index applies."""
    seq = []
    rank = _rank(obj)
    i = 1
    while i < rank:
        nxt = op(obj, i)
        if nxt is None:
            i += 1
        else:
            obj = nxt
            seq.append(i)
            i = 1
    return obj, tuple(seq)


def to_highest_weight(obj):
    """Apply raising operators (smallest index first) to exhaustion.

    Returns the highest weight element and the index sequence applied.
    """
    return _exhaust(obj, raising_operator)


def to_lowest_weight(obj):
    """Apply lowering operators (smallest index first) to exhaustion."""
    return _exhaust(obj, lowering_operator)


# ---------------------------------------------------------------------------
# rotation


def rotate(tab: PTableau) -> PTableau:
    """180-degree rotation with content t replaced by bound + 1 - t."""
    rotated = _rotate_grid(tab.grid, tab.content_bound)
    return PTableau._from_rows(_row_values(rotated), tab.content_bound)


def rotate_word(word):
    """Reverse the word and complement each letter within the rank."""
    if isinstance(word, ParsedWord):
        inner = rotate_word(word.word)
        k = len(inner)
        cuts = tuple(sorted(k - c for c in word.cuts))
        return ParsedWord(inner, cuts)
    n = word.rank
    return Word(n, tuple(n + 1 - a for a in reversed(word.letters)))


def apply_ops(obj, ops):
    """Apply a sequence like [("e", 2), ("f", 1)] left to right; None is
    absorbing."""
    for kind, i in ops:
        if obj is None:
            return None
        obj = raising_operator(obj, i) if kind == "e" else lowering_operator(obj, i)
    return obj
