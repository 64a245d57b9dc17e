"""Crystal raising/lowering operators on words and ptableaux.

Both models run the same bracket scan.  Reading left to right, raising
acts at the first position achieving the maximal running count and
lowering at the last.

A ptableau is read through its word: value s, taken from the bottom row
up, contributes (i+1)^{b_s} i^{a_s} to the signature of rows i and i+1,
where a_s and b_s count the s's in those rows.  These are two rows of the
count matrix a :class:`PTableau` stores, so the scan runs over them one
value block at a time (``core._count_scan``), and the value it selects
moves one count between the two rows.  Nothing is packed: the canonical
form depends only on those counts.  The two models therefore commute
through the word-to-ptableau bijection, and epsilon/phi are the largest
running counts of the same scan.
"""
from __future__ import annotations

from .core import (
    ParsedWord,
    PTableau,
    Word,
    _count_scan,
    is_anti_partition_shaped,
    is_partition_shaped,
)
from .errors import IndexOutOfRange, InternalInvariantError


def _rank(obj) -> int:
    return obj.rows if isinstance(obj, PTableau) else obj.rank


def _checked(obj, i: int):
    """``obj`` once i is a valid operator index for it; a parsed word comes
    back as its plain word."""
    rank = _rank(obj)
    if not 1 <= i <= rank - 1:
        raise IndexOutOfRange(f"operator index {i} outside [1..{rank - 1}]")
    return obj.word if isinstance(obj, ParsedWord) else obj


def _scan(letters, i: int, raising: bool):
    """The bracket scan of a word for index i, shared by the word operators
    and epsilon/phi (``core._count_scan`` runs it on a ptableau's counts).

    Raising reads left to right, and the running count at a position is the
    number of (i+1)'s up to it minus the number of i's strictly before it;
    lowering reads right to left with i and i+1 swapped.  Returns the
    largest running count (at least 0; it is epsilon_i when raising and
    phi_i when lowering) and the first position in reading order that
    reaches it, or None when that count is 0.
    """
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
    return best, best_j


# ---------------------------------------------------------------------------
# word operators


def word_raising(word, i: int):
    """Change the selected i+1 into an i, or None when undefined."""
    plain = _checked(word, i)
    letters = plain.letters
    j = _scan(letters, i, True)[1]
    if j is None:
        return None
    if letters[j] != i + 1:
        raise InternalInvariantError("raising selected a letter that is not i+1")
    out = Word._from_letters(plain.rank, letters[:j] + (i,) + letters[j + 1 :])
    return ParsedWord(out, word.cuts) if plain is not word else out


def word_lowering(word, i: int):
    """Change the selected i into an i+1, or None when undefined."""
    plain = _checked(word, i)
    letters = plain.letters
    j = _scan(letters, i, False)[1]
    if j is None:
        return None
    if letters[j] != i:
        raise InternalInvariantError("lowering selected a letter that is not i")
    out = Word._from_letters(plain.rank, letters[:j] + (i + 1,) + letters[j + 1 :])
    return ParsedWord(out, word.cuts) if plain is not word else out


def word_epsilon(word, i: int) -> int:
    return _scan(_checked(word, i).letters, i, True)[0]


def word_phi(word, i: int) -> int:
    return _scan(_checked(word, i).letters, i, False)[0]


# ---------------------------------------------------------------------------
# ptableau operators


def _moved(tab: PTableau, s: int, from_row: int, to_row: int) -> PTableau:
    """Move one copy of the value s + 1 between the 0-based rows."""
    counts = list(tab.counts)
    source, target = list(counts[from_row]), list(counts[to_row])
    source[s] -= 1
    target[s] += 1
    counts[from_row], counts[to_row] = tuple(source), tuple(target)
    return PTableau._from_counts(tuple(counts), tab.content_bound)


def _count_bracket(tab: PTableau, i: int, raising: bool):
    """``core._count_scan`` of rows i, i+1 (1-based)."""
    top, bottom = _checked(tab, i).counts[i - 1 : i + 1]
    return _count_scan(top, bottom, raising)


def ptab_raising(tab: PTableau, i: int):
    """Move the value of the signature's selected i+1 from row i+1 to row i."""
    s = _count_bracket(tab, i, True)[1]
    return None if s is None else _moved(tab, s, i, i - 1)


def ptab_lowering(tab: PTableau, i: int):
    """Move the value of the signature's selected i from row i to row i+1."""
    s = _count_bracket(tab, i, False)[1]
    return None if s is None else _moved(tab, s, i - 1, i)


def ptab_epsilon(tab: PTableau, i: int) -> int:
    """Largest count of the raising scan: the blanks in row i of the
    two-row restriction."""
    return _count_bracket(tab, i, True)[0]


def ptab_phi(tab: PTableau, i: int) -> int:
    """Largest count of the lowering scan: the blanks in row i+1 of the
    two-row restriction."""
    return _count_bracket(tab, i, False)[0]


# ---------------------------------------------------------------------------
# dispatch over both models


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
            i = max(i - 1, 1)  # op at i moved rows i, i+1: below i-1 stays undefined
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
    counts = tuple(count[::-1] for count in reversed(tab.counts))
    return PTableau._from_counts(counts, tab.content_bound)


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
