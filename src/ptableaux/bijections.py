"""Bijections among parsed words, biwords, matrices, ptableaux and RSK pairs."""
from __future__ import annotations

from itertools import chain

from .core import (
    ParsedWord,
    PTableau,
    Word,
    _check_cells,
    is_partition_shaped,
    minimal_parsing,
    shape,
)
from .errors import (
    BiwordInvalid,
    DimensionMismatch,
    NotPartitionShaped,
    PTableauError,
    ShapeError,
)


def _ints(values):
    """``values`` as a tuple of ints; a value that is not one is a typed error."""
    try:
        return tuple(map(int, values))
    except ValueError as exc:
        raise PTableauError(str(exc)) from exc


class Biword:
    """Two-line array with weakly increasing top row and bottoms weakly
    decreasing under a constant top entry."""

    __slots__ = ("top_rank", "bottom_rank", "columns")

    def __init__(self, top_rank: int, bottom_rank: int, columns):
        columns = tuple(map(_ints, columns))
        for col in columns:
            if len(col) != 2:
                raise BiwordInvalid(f"column {col} is not a pair")
        for a, b in columns:
            if not 1 <= a <= top_rank:
                raise BiwordInvalid(f"top entry {a} outside [1..{top_rank}]")
            if not 1 <= b <= bottom_rank:
                raise BiwordInvalid(f"bottom entry {b} outside [1..{bottom_rank}]")
        for (a1, b1), (a2, b2) in zip(columns, columns[1:]):
            if a1 > a2:
                raise BiwordInvalid("top row not weakly increasing")
            if a1 == a2 and b1 < b2:
                raise BiwordInvalid(
                    "bottom row not weakly decreasing under constant top"
                )
        self.top_rank = top_rank
        self.bottom_rank = bottom_rank
        self.columns = columns

    def __len__(self):
        return len(self.columns)

    def __eq__(self, other):
        return (
            isinstance(other, Biword)
            and self.top_rank == other.top_rank
            and self.bottom_rank == other.bottom_rank
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.top_rank, self.bottom_rank, self.columns))

    def __repr__(self):
        return f"Biword({self.to_text()!r})"

    def top(self):
        return tuple(a for a, _ in self.columns)

    def bottom(self):
        return tuple(b for _, b in self.columns)

    @classmethod
    def from_text(cls, text: str, top_rank=None, bottom_rank=None):
        """Two lines of space-separated integers; whitespace alone is the
        empty biword, whose two lines are empty."""
        lines = [ln for ln in text.strip().splitlines() if ln.strip()] or ["", ""]
        if len(lines) != 2:
            raise BiwordInvalid("expected two lines")
        top, bottom = (_ints(line.split()) for line in lines)
        if len(top) != len(bottom):
            raise BiwordInvalid("rows have different lengths")
        if top_rank is None:
            top_rank = max(top, default=0)
        if bottom_rank is None:
            bottom_rank = max(bottom, default=0)
        return cls(top_rank, bottom_rank, zip(top, bottom))

    def to_text(self) -> str:
        return (
            " ".join(str(a) for a in self.top())
            + "\n"
            + " ".join(str(b) for b in self.bottom())
        )

    def to_json_obj(self):
        return {
            "topRank": self.top_rank,
            "bottomRank": self.bottom_rank,
            "columns": [list(col) for col in self.columns],
        }


class NNMatrix:
    """Matrix of non-negative integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(map(_ints, entries))
        if len(set(map(len, entries))) > 1:
            raise DimensionMismatch("matrix is not rectangular")
        if min(chain.from_iterable(entries), default=0) < 0:
            raise PTableauError("negative entry")
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0

    def transpose(self) -> "NNMatrix":
        return NNMatrix(zip(*self.entries)) if self.entries else NNMatrix(())

    def __eq__(self, other):
        return isinstance(other, NNMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"NNMatrix({self.entries!r})"

    @classmethod
    def from_text(cls, text: str):
        return cls(line.split() for line in text.strip().splitlines() if line.strip())

    def to_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)

    def to_json_obj(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(row) for row in self.entries],
        }


class SSYTPair:
    """An insertion/recording pair of equal-shape semistandard tableaux."""

    __slots__ = ("insertion", "recording")

    def __init__(self, insertion: PTableau, recording: PTableau):
        if not (is_partition_shaped(insertion) and is_partition_shaped(recording)):
            raise NotPartitionShaped("both tableaux must be partition shaped")
        if shape(insertion) != shape(recording):
            raise ShapeError("tableaux have different shapes")
        self.insertion = insertion
        self.recording = recording

    @property
    def shape(self):
        return shape(self.insertion)

    def __eq__(self, other):
        return (
            isinstance(other, SSYTPair)
            and self.insertion == other.insertion
            and self.recording == other.recording
        )

    def __hash__(self):
        return hash((self.insertion, self.recording))

    def __repr__(self):
        return f"SSYTPair(P={self.insertion.to_text()!r}, Q={self.recording.to_text()!r})"


# ---------------------------------------------------------------------------
# count readers and writers
#
# The count matrix of a ptableau is the pivot of every model: each model
# has one reader of counts and one writer, and every other bijection is a
# composition through them.  A parsed word counts each letter in each
# factor (rows are letters, values are factors); a matrix is the transpose
# of those counts, the counts of the dual; a biword counts each bottom
# under each top, which is the matrix.


def ptableau_from_word(pw, rows: int | None = None) -> PTableau:
    """Build the left-justified ptableau of a parsed word.

    Factor s contributes the horizontal strip of s's; the letters name the
    rows, so the count matrix counts each letter in each factor.  A plain
    :class:`Word` is given its minimal parsing.
    """
    if isinstance(pw, Word):
        pw = minimal_parsing(pw)
    n = pw.rank if rows is None else rows
    if rows is not None and rows < max(pw.word.letters, default=0):
        raise PTableauError(f"rows must be at least 0 and every letter, not {rows}")
    _check_cells(n, pw.num_factors)
    counts = [[0] * pw.num_factors for _ in range(n)]
    for s, factor in enumerate(pw.factors):
        for letter in factor:
            counts[letter - 1][s] += 1
    return PTableau._from_counts(tuple(map(tuple, counts)), pw.num_factors)


def word_from_ptableau(tab: PTableau) -> ParsedWord:
    """Inverse of :func:`ptableau_from_word`: read each strip head to tail,
    which is from the bottom row up.  A ptableau with ``content_bound`` 0
    has no parsed word, because a :class:`ParsedWord` always has at least
    one factor: its word here has one empty factor, and so bound 1."""
    factors = [
        [r for r in range(tab.rows, 0, -1) for _ in range(tab.counts[r - 1][s])]
        for s in range(tab.content_bound)
    ]
    return ParsedWord._from_factors(tab.rows, factors)


def dual(tab: PTableau) -> PTableau:
    """The dual ptableau: row i of the input, read right to left, names the
    rows of the i-strip of the output.  Its count matrix is the transpose of
    the input's, so it is an involution.  Read as the counts of a ptableau
    with ``cols`` values, a matrix's dual is the matrix's ptableau."""
    counts = tuple(zip(*tab.counts)) if tab.rows else ((),) * tab.content_bound
    return PTableau._from_counts(counts, tab.rows)


def matrix_from_ptableau(tab: PTableau) -> NNMatrix:
    """entry (i, j) counts the i's in row j: the counts of :func:`dual`."""
    return NNMatrix(dual(tab).counts)


def matrix_from_biword(bw: Biword) -> NNMatrix:
    """entry (i, j) counts how many times i appears over j."""
    _check_cells(bw.top_rank, bw.bottom_rank)
    m = [[0] * bw.bottom_rank for _ in range(bw.top_rank)]
    for a, b in bw.columns:
        m[a - 1][b - 1] += 1
    return NNMatrix(m)


def biword_from_matrix(mat: NNMatrix) -> Biword:
    columns = []
    for i in range(mat.rows):
        for j in range(mat.cols - 1, -1, -1):
            columns.extend([(i + 1, j + 1)] * mat.entries[i][j])
    return Biword(mat.rows, mat.cols, columns)


def biword_from_parsed(pw: ParsedWord) -> Biword:
    """A string of i's over the i-th factor (empty factors contribute no
    columns, so their label is skipped): the biword of the word's counts."""
    return biword_from_matrix(matrix_from_ptableau(ptableau_from_word(pw)))


def parsed_from_biword(bw: Biword) -> ParsedWord:
    """The factors are the bottoms under each top: the word of the
    biword's counts, with ``bottom_rank`` rows even when there is no top."""
    over = PTableau._from_counts(matrix_from_biword(bw).entries, bw.bottom_rank)
    return word_from_ptableau(dual(over))


# ---------------------------------------------------------------------------
# RSK


def rsk(bw: Biword) -> SSYTPair:
    """Column insertion of the bottom word, left to right, recording with the
    top word.

    Each letter enters column 1; in each column it bumps the topmost entry
    that is >= it, and settles at the bottom of the first column whose
    entries are all smaller.  This variant keeps the recording tableau
    constant along crystal components (the convention is pinned by tests).
    """
    cols_p: list[list[int]] = []
    cols_q: list[list[int]] = []
    for a, b in bw.columns:
        x = b
        c = 0
        while True:
            if c == len(cols_p):
                cols_p.append([x])
                cols_q.append([a])
                break
            col = cols_p[c]
            bumped = None
            for idx, y in enumerate(col):
                if y >= x:
                    bumped = y
                    col[idx] = x
                    break
            if bumped is None:
                col.append(x)
                cols_q[c].append(a)
                break
            x = bumped
            c += 1
    def to_tab(cols, n_rows, bound):
        rows_values = [[] for _ in range(n_rows)]
        for col in cols:
            for r, v in enumerate(col):
                rows_values[r].append(v)
        return PTableau._from_rows(rows_values, bound)

    p = to_tab(cols_p, bw.bottom_rank, bw.bottom_rank)
    q = to_tab(cols_q, bw.top_rank, bw.top_rank)
    return SSYTPair(p, q)


def longest_weakly_decreasing(word) -> int:
    """Length of the longest weakly decreasing subword (dynamic program)."""
    if isinstance(word, ParsedWord):
        word = word.word
    letters = word.letters
    best = [0] * len(letters)
    for i, v in enumerate(letters):
        best[i] = 1 + max(
            (best[j] for j in range(i) if letters[j] >= v), default=0
        )
    return max(best, default=0)
