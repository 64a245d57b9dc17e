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
blanks within a row).  Every class has a unique left-justified member,
which is what :class:`PTableau` stores.  It depends only on the content of
each row: reading the cells as the tableau's word (values in increasing
order, each value's cells from the bottom row up), each cell's column is
the length of the longest weakly decreasing subword ending at its letter,
less one, so packing places every cell directly.
"""
from __future__ import annotations

import json
from itertools import combinations

from .errors import (
    ColumnStrictViolation,
    DimensionMismatch,
    InvalidParsing,
    PTableauError,
    ShadowViolation,
    StripViolation,
)


def _letters_from_text(text: str):
    """Letters of "2122" (single digits) or "2,1,2,2" (comma separated)."""
    text = text.strip()
    try:
        if "," in text:
            return [int(t) for t in text.split(",") if t.strip()]
        return [int(ch) for ch in text]
    except ValueError as exc:
        raise PTableauError(str(exc)) from exc


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


def _row_values(grid):
    return [[cell for cell in row if cell is not None] for row in grid]


def _grid_from_text(text: str):
    """Rows of the one-line-per-row text format; "." marks a blank."""
    try:
        return [
            [None if tok == "." else int(tok) for tok in line.split()]
            for line in text.strip().splitlines()
        ]
    except ValueError as exc:
        raise PTableauError(str(exc)) from exc


def _pack_rows(rows_values, n_rows: int):
    """Left-justified canonical grid realizing the given per-row content.

    The cells are read as the tableau's word: values in increasing order,
    each value's cells from the bottom row up, so a cell in row r is one
    letter r.  By the width law a cell's column is the length of the
    longest weakly decreasing subword ending at its letter, less one: the
    first column right of every earlier cell in its row or below, which
    ``reach[r]`` keeps.
    """
    reach = [0] * n_rows
    cells = [[] for _ in range(n_rows)]
    for v, r in sorted((v, -r) for r, row in enumerate(rows_values) for v in row):
        r = -r
        c = reach[r]
        cells[r].append((c, v))
        while r >= 0 and reach[r] == c:  # reach falls weakly down the rows
            reach[r] = c + 1
            r -= 1
    width = reach[0] if n_rows else 0
    grid = []
    for row_cells in cells:
        row = [None] * width
        for c, v in row_cells:
            row[c] = v
        grid.append(tuple(row))
    return tuple(grid)


def left_justify(grid):
    """The unique left-justified grid row-equivalent to ``grid``.

    The input must already be a valid ptableau filling; dimensions are
    preserved.
    """
    grid = _normalize_grid(grid)
    if not grid:
        return grid
    width = len(grid[0])
    packed = _pack_rows(_row_values(grid), len(grid))
    return tuple(row + (None,) * (width - len(row)) for row in packed)


def _rotate_grid(grid, bound: int):
    return tuple(
        tuple(None if v is None else bound + 1 - v for v in reversed(row))
        for row in reversed(grid)
    )


def right_justify(grid):
    """The unique right-justified grid row-equivalent to ``grid``."""
    grid = _normalize_grid(grid)
    if not grid:
        return grid
    bound = max((v for row in grid for v in row if v is not None), default=1)
    return _rotate_grid(left_justify(_rotate_grid(grid, bound)), bound)


def row_equivalent(grid_a, grid_b) -> bool:
    """True iff the two grids are members of the same ptableau class."""
    grid_a = _normalize_grid(grid_a)
    grid_b = _normalize_grid(grid_b)
    if len(grid_a) != len(grid_b):
        raise DimensionMismatch("row counts differ")
    if grid_a and grid_b and len(grid_a[0]) != len(grid_b[0]):
        return False
    return left_justify(grid_a) == left_justify(grid_b)


def check_grid(grid) -> None:
    """Raise a typed error unless ``grid`` satisfies the ptableau conditions."""
    grid = _normalize_grid(grid)
    cells_by_value: dict = {}
    for r, row in enumerate(grid):
        for c, v in enumerate(row):
            if v is not None:
                cells_by_value.setdefault(v, []).append((r, c))
    # strict columns
    width = len(grid[0]) if grid else 0
    for c in range(width):
        prev = None
        for r in range(len(grid)):
            v = grid[r][c]
            if v is None:
                continue
            if prev is not None and v <= prev:
                raise ColumnStrictViolation(
                    f"column {c + 1} not strictly increasing"
                )
            prev = v
    # horizontal strips
    for v, cells in cells_by_value.items():
        for (r1, c1), (r2, c2) in combinations(cells, 2):
            if c1 == c2:
                raise StripViolation(f"two {v}'s share column {c1 + 1}")
            hi, lo = ((r1, c1), (r2, c2)) if r1 < r2 else ((r2, c2), (r1, c1))
            if hi[0] < lo[0] and hi[1] <= lo[1]:
                raise StripViolation(
                    f"{v}-strip cell in row {hi[0] + 1} not right of row {lo[0] + 1}"
                )
    # northwest shadows
    values = sorted(cells_by_value)
    for i, j in combinations(values, 2):
        for ri, ci in cells_by_value[i]:
            for rj, cj in cells_by_value[j]:
                if rj <= ri and cj <= ci:
                    raise ShadowViolation(
                        f"{j} at ({rj + 1},{cj + 1}) shadowed by {i} at ({ri + 1},{ci + 1})"
                    )


class PTableau:
    """Canonical (left-justified, no blank columns) perforated tableau.

    ``content_bound`` is the largest content value the class admits; it can
    exceed the largest value actually present (words parsed with empty
    factors produce such gaps).
    """

    __slots__ = ("rows", "cols", "grid", "content_bound")

    def __init__(self, grid, content_bound: int | None = None):
        other = validate_ptableau(grid, content_bound)
        for name in self.__slots__:
            setattr(self, name, getattr(other, name))

    @classmethod
    def _from_rows(cls, rows_values, content_bound: int) -> "PTableau":
        """The canonical ptableau with the given (trusted) per-row contents;
        the one constructor that skips validation."""
        tab = object.__new__(cls)
        tab.grid = grid = _pack_rows(rows_values, len(rows_values))
        tab.rows = len(grid)
        tab.cols = len(grid[0]) if grid and grid[0] else 0
        tab.content_bound = content_bound
        return tab

    def row_values(self):
        return _row_values(self.grid)

    def weight(self):
        return tuple(
            sum(1 for v in row if v is not None) for row in self.grid
        )

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
            (v for row in self.grid for v in row if v is not None), default=0
        )

    def __eq__(self, other):
        return (
            isinstance(other, PTableau)
            and self.rows == other.rows
            and self.content_bound == other.content_bound
            and self.grid == other.grid
        )

    def __hash__(self):
        return hash((self.rows, self.content_bound, self.grid))

    def __repr__(self):
        return f"PTableau({self.to_text()!r})"

    @classmethod
    def from_text(cls, text: str, content_bound: int | None = None):
        """Parse the one-line-per-row text format; "." marks a blank."""
        return validate_ptableau(_grid_from_text(text), content_bound)

    def to_text(self) -> str:
        return "\n".join(
            " ".join("." if v is None else str(v) for v in row)
            for row in self.grid
        )

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
    """Check every ptableau condition, then canonicalize.

    All-blank columns are removed during canonicalization; the result's
    column count is that of the left-justified class representative.
    """
    grid = _normalize_grid(grid)
    check_grid(grid)
    max_val = max((v for row in grid for v in row if v is not None), default=0)
    if content_bound is None:
        content_bound = max_val
    elif content_bound < max_val:
        raise PTableauError("content_bound below largest value present")
    return PTableau._from_rows(_row_values(grid), content_bound)


def restrict(tab: PTableau, i: int) -> PTableau:
    """Two-row ptableau of rows i, i+1 (1-based) with blank columns dropped."""
    if not 1 <= i < tab.rows:
        raise ValueError(f"row index {i} out of range")
    rows_values = _row_values(tab.grid[i - 1 : i + 1])
    return PTableau._from_rows(rows_values, tab.content_bound)


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


def is_partition_shaped(tab: PTableau) -> bool:
    """True iff no blank in the left-justified form has content right or below."""
    g = tab.grid
    for r in range(tab.rows):
        for c in range(tab.cols):
            if g[r][c] is None:
                if any(g[r][c2] is not None for c2 in range(c + 1, tab.cols)):
                    return False
                if any(g[r2][c] is not None for r2 in range(r + 1, tab.rows)):
                    return False
    return True


def is_anti_partition_shaped(tab: PTableau) -> bool:
    """True iff no blank in the right-justified form has content left or above."""
    g = right_justify(tab.grid)
    rows, cols = tab.rows, tab.cols
    for r in range(rows):
        for c in range(cols):
            if g[r][c] is None:
                if any(g[r][c2] is not None for c2 in range(c)):
                    return False
                if any(g[r2][c] is not None for r2 in range(r)):
                    return False
    return True


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
    strictly below the previous strip's tail."""
    strips = {v: tab.cells_of(v) for v in range(1, tab.content_bound + 1)}
    if any(not cells for cells in strips.values()):
        return tab.content_bound == 0
    for v in range(2, tab.content_bound + 1):
        head_row = strips[v][0][0]
        tail_row = strips[v - 1][-1][0]
        if head_row <= tail_row:
            return False
    return True
