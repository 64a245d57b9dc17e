"""Words, parsings, and perforated tableaux with canonical representatives.

A perforated tableau (ptableau) is a rectangular grid whose boxes either
hold a positive integer or are blank, subject to:

  1. the cells holding any fixed value form a horizontal strip
     (no two in a column; cells in higher rows lie strictly right of
     cells in lower rows);
  2. for values i < j, no j-cell lies weakly northwest of an i-cell
     (the "northwest shadow" condition);
  3. ignoring blanks, rows weakly increase and columns strictly increase;
  4. no column is entirely blank (all-blank rows are fine).

Ptableaux are considered up to row equivalence (sliding content past
blanks within a row).  Every class has a unique left-justified member, and
it depends only on the content of each row, so a class is its count
matrix: how many s's sit in each row.  :class:`PTableau` stores, compares
and hashes that matrix; besides it, a tableau keeps only the views read
so far (its text and width, and its grid).  One packer reads the matrix
when the tableau is first shown: reading the cells as the tableau's word
(values in increasing order, each value's cells from the bottom row up),
each cell's column is the length of the longest weakly decreasing
subword ending at its letter, less one, so a row's copies of one value
fill a block of columns placed directly.  The text is rendered from those
blocks, which are then let go, and the grid is read back off the text.

Validation reads grids in word order too.  Past the column check, a
value's cells form a horizontal strip iff their columns strictly increase,
and the shadow condition holds iff each cell lies right of every earlier
cell in its row or below.  With several bad pairs, an error names the
first in that order (a shadow error with the first read of the rightmost
earlier cells in the row or below).
"""
from __future__ import annotations

import json
from itertools import combinations

from .errors import (
    ColumnStrictViolation,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParsing,
    PTableauError,
    ShadowViolation,
    SizeLimitExceeded,
    StripViolation,
)

# the most cells a count matrix built from its dimensions may have (the
# CLI's --max-nodes default): a huge letter, rank or value is refused
_MAX_CELLS = 10**6


def _letters_from_text(text: str):
    """Letters of "2122" (single digits) or "2,1,2,2" (comma separated)."""
    text = text.strip()
    try:
        if "," in text:
            return [int(t) for t in text.split(",") if t.strip()]
        return [int(ch) for ch in text]
    except ValueError as exc:
        raise PTableauError(
            f"{text!r} read as a word: letters are digits, or integers"
            " separated by commas"
        ) from exc


def _check_cells(rows: int, cols: int) -> None:
    """Refuse a ``rows`` x ``cols`` count matrix of more than ``_MAX_CELLS``
    cells before it is built; a row without columns counts as one cell."""
    if rows * max(cols, 1) > _MAX_CELLS:
        raise SizeLimitExceeded(
            f"a {rows} x {cols} count matrix exceeds {_MAX_CELLS} cells"
        )


class Word:
    """A word over the alphabet [n] = {1, ..., n}."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters):
        letters = tuple(letters)
        if rank < 0:
            raise PTableauError("rank must be non-negative")
        for a in letters:
            if type(a) is not int or not 1 <= a <= rank:  # bool is not a letter
                raise PTableauError(f"letter {a!r} outside alphabet [1..{rank}]")
        self.rank = rank
        self.letters = letters

    @classmethod
    def _from_letters(cls, rank: int, letters: tuple) -> "Word":
        """The word of a tuple of letters already known to lie in [1..rank]."""
        word = object.__new__(cls)
        word.rank = rank
        word.letters = letters
        return word

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __repr__(self):
        return f"Word({self.rank}, {self.to_text()!r})"

    @classmethod
    def from_text(cls, text: str, rank: int | None = None) -> "Word":
        """Parse "2122331331" (single digits) or "2,1,2,2" (comma separated)."""
        letters = _letters_from_text(text)
        if rank is None:
            rank = max(letters, default=0)
        return cls(rank, letters)

    def to_text(self) -> str:
        if self.rank > 9:
            return ",".join(str(a) for a in self.letters)
        return "".join(str(a) for a in self.letters)


class ParsedWord:
    """A word together with a parsing into weakly decreasing factors.

    The parsing is stored as cut positions 0 <= c_1 <= ... <= c_{l-1} <= k,
    so empty factors are representable.
    """

    __slots__ = ("word", "cuts")

    def __init__(self, word: Word, cuts):
        cuts = tuple(cuts)
        k = len(word)
        prev = 0
        for c in cuts:
            if not 0 <= c <= k or c < prev:
                raise InvalidParsing(f"bad cut position {c}")
            prev = c
        self.word = word
        self.cuts = cuts
        for factor in self.factors:
            for a, b in zip(factor, factor[1:]):
                if a < b:
                    raise InvalidParsing(
                        f"factor {factor} is not weakly decreasing"
                    )

    @property
    def rank(self) -> int:
        return self.word.rank

    @property
    def num_factors(self) -> int:
        return len(self.cuts) + 1

    @property
    def factors(self) -> "tuple[tuple[int, ...], ...]":
        letters = self.word.letters
        bounds = (0,) + self.cuts + (len(letters),)
        return tuple(
            letters[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)
        )

    def __eq__(self, other):
        return (
            isinstance(other, ParsedWord)
            and self.word == other.word
            and self.cuts == other.cuts
        )

    def __hash__(self):
        return hash((self.word, self.cuts))

    def __repr__(self):
        return f"ParsedWord({self.rank}, {self.to_text()!r})"

    @classmethod
    def _from_factors(cls, rank: int, factors) -> "ParsedWord":
        """The parsed word whose factors are ``factors``, in order."""
        letters, cuts = [], []
        for f in factors:
            letters.extend(f)
            cuts.append(len(letters))
        return cls(Word(rank, letters), cuts[:-1])

    @classmethod
    def from_text(cls, text: str, rank: int | None = None) -> "ParsedWord":
        """Parse "21|22|331|331"; "||" denotes an empty factor."""
        factors = [_letters_from_text(piece) for piece in text.split("|")]
        if rank is None:
            rank = max((a for f in factors for a in f), default=0)
        return cls._from_factors(rank, factors)

    def to_text(self) -> str:
        sep = "," if self.rank > 9 else ""
        return "|".join(sep.join(str(a) for a in f) for f in self.factors)


def minimal_parsing(word: Word) -> ParsedWord:
    """Cut exactly where a letter strictly exceeds its predecessor."""
    letters = word.letters
    cuts = [i for i in range(1, len(letters)) if letters[i - 1] < letters[i]]
    return ParsedWord(word, cuts)


def all_parsings(word: Word):
    """Yield every parsing of ``word`` without empty factors."""
    letters = word.letters
    k = len(letters)
    forced = set(i for i in range(1, k) if letters[i - 1] < letters[i])
    optional = [i for i in range(1, k) if i not in forced]
    for r in range(len(optional) + 1):
        for extra in combinations(optional, r):
            yield ParsedWord(word, sorted(forced | set(extra)))


# ---------------------------------------------------------------------------
# grid machinery


def _normalize_grid(grid):
    rows = [tuple(row) for row in grid]
    if rows:
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise DimensionMismatch("grid is not rectangular")
    for row in rows:
        for cell in row:
            if cell is not None and (type(cell) is not int or cell < 1):
                raise PTableauError(f"bad cell {cell!r}")  # bool is not a cell
    return tuple(rows)


def _grid_from_text(text: str):
    """Rows of the one-line-per-row text format; "." marks a blank."""
    try:
        return [
            [None if tok == "." else int(tok) for tok in line.split()]
            for line in text.strip().splitlines()
        ]
    except ValueError as exc:
        raise PTableauError(str(exc)) from exc


def _pack_rows(counts):
    """Each row's runs ``(column, value, multiplicity)`` of the
    left-justified ptableau of a count matrix, and its width.

    The cells are read as the tableau's word: values in increasing order,
    each value's cells from the bottom row up, so a cell in row r is one
    letter r.  By the width law a cell's column is the length of the
    longest weakly decreasing subword ending at its letter, less one: the
    first column right of every earlier cell in its row or below, which
    ``reach[r]`` keeps.  A row's m cells of one value are consecutive
    letters, so they fill the block of m columns from ``reach[r]`` on, and
    every row r' <= r that reaches into the block is raised past it.
    """
    reach = [0] * len(counts)
    runs = [[] for _ in counts]
    bottom_up = range(len(counts) - 1, -1, -1)
    for v, column in enumerate(zip(*counts), 1):
        for r in bottom_up:
            m = column[r]
            if m:
                c = reach[r]
                runs[r].append((c, v, m))
                end = c + m
                while r >= 0 and reach[r] < end:  # reach falls weakly down the rows
                    reach[r] = end
                    r -= 1
    return runs, reach[0] if counts else 0


def left_justify(grid):
    """The unique left-justified grid row-equivalent to ``grid``.

    The input must already be a valid ptableau filling; dimensions are
    preserved.
    """
    grid = _normalize_grid(grid)
    width = len(grid[0]) if grid else 0
    top = max((v for row in grid for v in row if v), default=0)
    packed = PTableau._from_rows(grid, top).grid
    return tuple(row + (None,) * (width - len(row)) for row in packed)


def _rotate_grid(grid, bound: int):
    return tuple(
        tuple(None if v is None else bound + 1 - v for v in reversed(row))
        for row in reversed(grid)
    )


def right_justify(grid):
    """The unique right-justified grid row-equivalent to ``grid``."""
    grid = _normalize_grid(grid)
    bound = max((v for row in grid for v in row if v), default=1)
    return _rotate_grid(left_justify(_rotate_grid(grid, bound)), bound)


def row_equivalent(grid_a, grid_b) -> bool:
    """True iff the grids share a class: their dimensions and row contents."""
    grid_a = _normalize_grid(grid_a)
    grid_b = _normalize_grid(grid_b)
    if len(grid_a) != len(grid_b):
        raise DimensionMismatch("row counts differ")
    if grid_a and len(grid_a[0]) != len(grid_b[0]):
        return False
    return [sorted(filter(None, row)) for row in grid_a] == [
        sorted(filter(None, row)) for row in grid_b
    ]


def check_grid(grid) -> None:
    """Raise the error :func:`validate_ptableau` raises for ``grid``, if any."""
    validate_ptableau(grid)


class PTableau:
    """Canonical (left-justified, no blank columns) perforated tableau.

    Stored as its count matrix: ``counts[r][s - 1]`` is the number of s's
    in row r (0-based), for s up to ``content_bound``, the largest content
    value the class admits; it can exceed the largest value actually
    present (words parsed with empty factors produce such gaps).  Equality
    and the hash read only ``counts`` and ``content_bound``.  The first read
    of the text, the grid or its width ``cols`` packs the counts into each
    row's runs of one value once: the text is rendered from the runs, which
    are not kept, and the grid is read back off the text.
    """

    __slots__ = ("rows", "content_bound", "counts", "_hash", "cols", "grid", "_text")

    def __init__(self, grid, content_bound: int | None = None):
        other = validate_ptableau(grid, content_bound)
        for name in ("rows", "content_bound", "counts", "_hash"):
            setattr(self, name, getattr(other, name))

    @classmethod
    def _from_counts(cls, counts, content_bound: int) -> "PTableau":
        """The ptableau of a (trusted) count matrix, a tuple of row tuples
        of length ``content_bound``."""
        tab = object.__new__(cls)
        tab.rows = len(counts)
        tab.content_bound = content_bound
        tab.counts = counts
        tab._hash = hash((counts, content_bound))
        return tab

    @classmethod
    def _from_rows(cls, rows_values, content_bound: int) -> "PTableau":
        """The canonical ptableau with the given (trusted) per-row contents,
        blanks (None) skipped; with :meth:`_from_counts`, the only
        constructors that skip validation."""
        _check_cells(len(rows_values), content_bound)
        counts = [[0] * content_bound for _ in rows_values]
        for count, row in zip(counts, rows_values):
            for v in filter(None, row):
                count[v - 1] += 1
        return cls._from_counts(tuple(map(tuple, counts)), content_bound)

    def __getattr__(self, name):
        # reached only while a slot is unset: the one packing renders the
        # text and sets the width, and the grid is read back off the text
        if name == "_text" or name == "cols":
            runs, self.cols = _pack_rows(self.counts)
            lines = []
            for row in runs:
                line, end = "", 0
                for c, v, m in row:
                    line += ". " * (c - end) + f"{v} " * m
                    end = c + m
                lines.append((line + ". " * (self.cols - end))[:-1])
            self._text = "\n".join(lines)
        elif name == "grid":
            lines = self._text.split("\n") if self.rows else ()
            self.grid = tuple(
                tuple([None if tok == "." else int(tok) for tok in line.split()])
                for line in lines
            )
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return getattr(self, name)

    def row_values(self):
        """Each row's values in increasing order."""
        return [[s for s, n in enumerate(c, 1) for _ in range(n)] for c in self.counts]

    def weight(self):
        return tuple(map(sum, self.counts))

    def cells_of(self, value: int):
        """Cells holding ``value``, head to tail (by increasing column)."""
        return [
            (r, c)
            for c in range(self.cols)
            for r in range(self.rows)
            if self.grid[r][c] == value
        ]

    def max_value(self) -> int:
        return max(
            (s for count in self.counts for s, n in enumerate(count, 1) if n),
            default=0,
        )

    def __eq__(self, other):
        return (
            isinstance(other, PTableau)
            and self.content_bound == other.content_bound
            and self.counts == other.counts
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PTableau({self.to_text()!r})"

    @classmethod
    def from_text(cls, text: str, content_bound: int | None = None):
        """Parse the one-line-per-row text format; "." marks a blank."""
        return validate_ptableau(_grid_from_text(text), content_bound)

    def to_text(self) -> str:
        return self._text

    def to_json_obj(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "grid": [list(row) for row in self.grid],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise PTableauError(str(exc)) from exc
        grid = obj.get("grid") if isinstance(obj, dict) else None
        if not (
            isinstance(grid, list) and all(isinstance(row, list) for row in grid)
        ):
            raise PTableauError('expected a JSON object with a "grid" list of rows')
        return validate_ptableau(grid, None)


def validate_ptableau(grid, content_bound: int | None = None) -> PTableau:
    """The canonical ptableau of ``grid`` (all-blank columns dropped), once
    it passes the column, strip and shadow checks in that order; the module
    docstring says which cells an error names."""
    if content_bound is not None and type(content_bound) is not int:
        raise PTableauError(f"content_bound {content_bound!r} is not an int")
    grid = _normalize_grid(grid)
    for c, column in enumerate(zip(*grid)):
        values = [v for v in column if v is not None]
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ColumnStrictViolation(f"column {c + 1} not strictly increasing")
    cells = sorted(  # word order
        (v, -r, c) for r, row in enumerate(grid) for c, v in enumerate(row) if v
    )
    for (v, r, c), (w, r2, c2) in zip(cells, cells[1:]):
        if v == w and c2 <= c:
            raise StripViolation(
                f"{v}-strip cell in row {1 - r2} not right of row {1 - r}"
            )
    top = cells[-1][0] if cells else 0
    bound = top if content_bound is None else content_bound
    _check_cells(len(grid), max(bound, top))
    counts = [[0] * max(bound, top) for _ in grid]
    reach = [(0, None)] * len(grid)  # as in _pack_rows, with the cell that set it
    for v, r, c in cells:
        r = -r
        if c < reach[r][0]:
            i, ri, ci = reach[r][1]
            raise ShadowViolation(
                f"{v} at ({r + 1},{c + 1}) shadowed by {i} at ({ri + 1},{ci + 1})"
            )
        counts[r][v - 1] += 1
        setter = (c + 1, (v, r, c))
        while r >= 0 and reach[r][0] <= c:  # reach falls weakly down the rows
            reach[r] = setter
            r -= 1
    if bound < top:
        raise PTableauError("content_bound below largest value present")
    return PTableau._from_counts(tuple(map(tuple, counts)), bound)


def restrict(tab: PTableau, i: int) -> PTableau:
    """Two-row ptableau of rows i, i+1 (1-based) with blank columns dropped."""
    if not 1 <= i < tab.rows:
        raise IndexOutOfRange(f"row index {i} out of range")
    return PTableau._from_counts(tab.counts[i - 1 : i + 1], tab.content_bound)


def weight(obj):
    """Weight of a ptableau (filled boxes per row) or word (letter counts)."""
    if isinstance(obj, PTableau):
        return obj.weight()
    if isinstance(obj, ParsedWord):
        obj = obj.word
    if isinstance(obj, Word):
        counts = [0] * obj.rank
        for a in obj.letters:
            counts[a - 1] += 1
        return tuple(counts)
    raise TypeError(f"no weight for {type(obj).__name__}")


word_weight = weight


def _count_scan(top, bottom, raising: bool):
    """The bracket scan of two rows of a count matrix, one value at a time.

    Value s reads (i+1)^{b_s} i^{a_s} in the signature of the two rows,
    with a_s = ``top[s]`` and b_s = ``bottom[s]``.  Raising reads the values
    in increasing order, each a run of b_s letters that raise the running
    count and then a_s that lower it; lowering reads the signature right to
    left, so the values in decreasing order, each a_s raising letters and
    then b_s lowering ones.  The count peaks at the last letter of a
    raising run, so only those are compared.  Returns the largest running
    count (at least 0) and the 0-based value of the first run that reaches
    it, or None when that count is 0.
    """
    if raising:
        plus, minus, order = bottom, top, range(len(top))
    else:
        plus, minus, order = top, bottom, range(len(top) - 1, -1, -1)
    best, best_s, cur = 0, None, 0
    for s in order:
        n = plus[s]
        if n:
            cur += n
            if cur > best:
                best, best_s = cur, s
        cur -= minus[s]
    return best, best_s


def is_partition_shaped(tab: PTableau) -> bool:
    """True iff no raising operator applies; equivalently, no blank in the
    left-justified form has content right of it or below it."""
    counts = tab.counts
    return all(
        _count_scan(top, bottom, True)[1] is None
        for top, bottom in zip(counts, counts[1:])
    )


def is_anti_partition_shaped(tab: PTableau) -> bool:
    """True iff no lowering operator applies; equivalently, no blank in the
    right-justified form has content left of it or above it."""
    counts = tab.counts
    return all(
        _count_scan(top, bottom, False)[1] is None
        for top, bottom in zip(counts, counts[1:])
    )


def shape(tab: PTableau):
    """Row-count weight with trailing zeros removed (partition for highest weights)."""
    return _trimmed(tab.weight())


def _trimmed(w):
    """``w`` as a tuple without its trailing zeros."""
    w = tuple(w)
    while w and w[-1] == 0:
        w = w[:-1]
    return w


def is_yamanouchi(word: Word) -> bool:
    """Every prefix has at least as many i's as (i+1)'s, for every i."""
    if isinstance(word, ParsedWord):
        word = word.word
    counts = [0] * (word.rank + 1)
    for a in word.letters:
        counts[a] += 1
        if a > 1 and counts[a] > counts[a - 1]:
            return False
    return True


def is_minimally_parsed(tab: PTableau) -> bool:
    """True iff every value up to the bound occurs and each strip's head sits
    strictly below the previous strip's tail.  A strip's head is in the
    lowest row holding its value and its tail in the highest."""
    tail = -1
    for s in range(tab.content_bound):
        rows = [r for r, count in enumerate(tab.counts) if count[s]]
        if not rows or rows[-1] <= tail:
            return False
        tail = rows[0]
    return True
