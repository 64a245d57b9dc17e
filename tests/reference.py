"""Independent references for the canonical packing, the ptableau operators,
the shape predicates, the tensor product, evacuation's outer corners and
slide, minimal parsing and the raise/lower-to-exhaustion loop.

``search_pack_rows`` is the column search the library used before it read
each cell's column off the width law: it tries every column from the left
until the ptableau conditions hold.  ``grid_text`` renders a grid cell by
cell, as the library did before it rendered from the packed runs.  The
grid rule below finds the moving value on the justified two-row
restriction, as the paper states it, and packs only with
``search_pack_rows``; the shape predicates, the tensor product and minimal
parsing read the packed grid, the corners rescan each blank's northwest
quadrant, and the slide rebuilds the grid per step.
``pairwise_check_grid`` is the grid check the library ran before it read
the conditions in word order: it compares every pair of a value's cells
and every pair of cells of two values.  ``word_pivot_convert`` is
``ptab convert`` as it was before the count matrix became its pivot: it
reads every model as a parsed word, with the direct parsed word/biword
maps of that design, and writes every target from it; it reads words,
ptableaux and the "auto" sniff through the CLI's one reader, and biwords
and matrices (which take no ``rank`` or ``cuts``) its own way.
Apart from ``word_pivot_convert``, which reads and writes through the
library's models, nothing here calls the library's packer, its operators,
its count matrix or its validation; ``exhaust`` applies the operator it is
given, and ``run_blank`` repeats the library's one inward step.
"""
import json
from itertools import combinations

from ptableaux import (
    Biword,
    NNMatrix,
    ParsedWord,
    biword_from_matrix,
    dual,
    matrix_from_ptableau,
    ptableau_from_word,
    rsk,
    word_from_ptableau,
)
from ptableaux.cli import _read_model
from ptableaux.core import _normalize_grid
from ptableaux.evacuation import inward_slide_step
from ptableaux.errors import ColumnStrictViolation, ShadowViolation, StripViolation


def search_pack_rows(rows_values, n_rows):
    """Left-justified grid of the per-row content, cell by cell.

    Values are placed in increasing order, within each value bottom row
    first, each cell as far left as the ptableau conditions allow.
    """
    placed = {}
    col_next = [0] * n_rows
    right_small = [-1] * n_rows  # rightmost placed column of smaller values
    values = sorted({v for row in rows_values for v in row})
    for v in values:
        suffix = [-1] * (n_rows + 1)
        for r in range(n_rows - 1, -1, -1):
            suffix[r] = max(suffix[r + 1], right_small[r])
        frontier = 0
        new_cells = []
        for r in range(n_rows - 1, -1, -1):
            for _ in range(rows_values[r].count(v)):
                c = max(col_next[r], frontier, suffix[r] + 1)
                while True:
                    ok = True
                    for ri in range(r - 1, -1, -1):
                        above = placed.get((ri, c))
                        if above is not None:
                            ok = above < v
                            break
                    if ok:
                        for ri in range(r + 1, n_rows):
                            below = placed.get((ri, c))
                            if below is not None:
                                ok = below > v
                                break
                    if ok:
                        break
                    c += 1
                placed[(r, c)] = v
                new_cells.append((r, c))
                col_next[r] = c + 1
                frontier = c + 1
        for r, c in new_cells:
            if c > right_small[r]:
                right_small[r] = c
    width = 1 + max((c for (_, c) in placed), default=-1)
    return tuple(
        tuple(placed.get((r, c)) for c in range(width)) for r in range(n_rows)
    )


def grid_text(grid):
    """The one-line-per-row text of ``grid``; "." marks a blank."""
    rows = [["." if v is None else str(v) for v in row] for row in grid]
    return "\n".join([" ".join(row) for row in rows])


def _values(row):
    return [v for v in row if v is not None]


def restriction(tab, i):
    """Left-justified grid of rows i, i+1 (1-based) of ``tab``."""
    return search_pack_rows([_values(row) for row in tab.grid[i - 1 : i + 1]], 2)


def _rotated(grid, bound):
    return tuple(
        tuple(None if v is None else bound + 1 - v for v in reversed(row))
        for row in reversed(grid)
    )


def right_justified(grid):
    """Rotate, left-justify, rotate back."""
    bound = max((v for row in grid for v in row if v is not None), default=1)
    rotated = _rotated(grid, bound)
    packed = search_pack_rows([_values(row) for row in rotated], len(grid))
    return _rotated(packed, bound)


def _moved(tab, value, from_row, to_row):
    rows_values = [_values(row) for row in tab.grid]
    rows_values[from_row].remove(value)
    rows_values[to_row].append(value)
    return search_pack_rows(rows_values, tab.rows)


def grid_raising(tab, i):
    """Grid of e_i(tab): the last entry of row i+1 of the restriction with a
    blank above it moves to row i; None when there is none."""
    top, bottom = restriction(tab, i)
    for a, b in zip(reversed(top), reversed(bottom)):
        if a is None and b is not None:
            return _moved(tab, b, i, i - 1)
    return None


def grid_lowering(tab, i):
    """Grid of f_i(tab): the first entry of row i of the right-justified
    restriction with a blank below it moves to row i+1; None when there is
    none."""
    top, bottom = right_justified(restriction(tab, i))
    for a, b in zip(top, bottom):
        if a is not None and b is None:
            return _moved(tab, a, i - 1, i)
    return None


def grid_epsilon(tab, i):
    """Blanks in row i of the restriction."""
    return restriction(tab, i)[0].count(None)


def grid_phi(tab, i):
    """Blanks in row i+1 of the restriction."""
    return restriction(tab, i)[1].count(None)


def grid_partition_shaped(grid):
    """No blank of the left-justified grid has content right of it or below."""
    rows, cols = len(grid), len(grid[0]) if grid else 0
    for r in range(rows):
        for c in range(cols):
            if grid[r][c] is None:
                if any(grid[r][c2] is not None for c2 in range(c + 1, cols)):
                    return False
                if any(grid[r2][c] is not None for r2 in range(r + 1, rows)):
                    return False
    return True


def grid_anti_partition_shaped(grid):
    """No blank of the right-justified grid has content left of it or above."""
    g = right_justified(grid)
    rows, cols = len(g), len(g[0]) if g else 0
    for r in range(rows):
        for c in range(cols):
            if g[r][c] is None:
                if any(g[r][c2] is not None for c2 in range(c)):
                    return False
                if any(g[r2][c] is not None for r2 in range(r)):
                    return False
    return True


def grid_tensor(left, right):
    """Grid of the tensor product: each row of ``left``'s grid followed by
    the same row of ``right``'s, its values shifted up by ``left``'s bound,
    re-packed."""
    offset = left.content_bound
    rows_values = [
        _values(lrow) + [v + offset for v in _values(rrow)]
        for lrow, rrow in zip(left.grid, right.grid)
    ]
    return search_pack_rows(rows_values, left.rows)


def _active(grid, r, c):
    """Some content lies weakly northwest of (r, c)."""
    return any(
        grid[r2][c2] is not None for r2 in range(r + 1) for c2 in range(c + 1)
    )


def quadrant_corners(grid):
    """Outer corners of evacuation: active blanks with no active blank
    immediately left or above, each found by rescanning its quadrant."""
    corners = []
    for r, row in enumerate(grid):
        for c, v in enumerate(row):
            if v is not None or not _active(grid, r, c):
                continue
            if r > 0 and grid[r - 1][c] is None and _active(grid, r - 1, c):
                continue
            if c > 0 and grid[r][c - 1] is None and _active(grid, r, c - 1):
                continue
            corners.append((r, c))
    return corners


def grid_minimally_parsed(grid, bound):
    """Every value up to ``bound`` occurs in ``grid`` and each strip's head
    (its leftmost cell) sits strictly below the previous strip's tail."""
    cols = len(grid[0]) if grid else 0
    strips = {
        v: [(r, c) for c in range(cols) for r in range(len(grid)) if grid[r][c] == v]
        for v in range(1, bound + 1)
    }
    if any(not cells for cells in strips.values()):
        return False
    return all(strips[v][0][0] > strips[v - 1][-1][0] for v in range(2, bound + 1))


def slide_step(grid, pos):
    """One inward slide of the blank at ``pos`` on a fresh copy of ``grid``:
    with content b above and c to the left it swaps with b iff b >= c,
    otherwise with c; a single content neighbor is taken; with neither the
    blank is fixed.  Returns (grid, new position)."""
    grid = [list(row) for row in grid]
    r, c = pos
    above = grid[r - 1][c] if r > 0 else None
    left = grid[r][c - 1] if c > 0 else None
    if above is None and left is None:
        return tuple(tuple(row) for row in grid), pos
    if left is None or (above is not None and above >= left):
        grid[r][c], grid[r - 1][c] = above, None
        new = (r - 1, c)
    else:
        grid[r][c], grid[r][c - 1] = left, None
        new = (r, c - 1)
    return tuple(tuple(row) for row in grid), new


def run_blank(grid, pos):
    """Slide one blank inward, one ``inward_slide_step`` at a time, until it
    is fixed; returns (grid, path)."""
    path = [pos]
    while True:
        grid, new = inward_slide_step(grid, path[-1])
        if new == path[-1]:
            return grid, tuple(path)
        path.append(new)


def exhaust(obj, op, rank):
    """Apply ``op`` until no index below ``rank`` applies, restarting at
    index 1 after every step; returns (result, index sequence)."""
    seq = []
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


def pairwise_check_grid(grid) -> None:
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


def biword_of_parsed(pw):
    """A string of s's over the s-th factor, read factor by factor."""
    columns = [(s, a) for s, factor in enumerate(pw.factors, 1) for a in factor]
    return Biword(pw.num_factors, pw.rank, columns)


def parsed_of_biword(bw):
    """The bottoms under each top, one factor per top."""
    factors = [[] for _ in range(bw.top_rank)]
    for a, b in bw.columns:
        factors[a - 1].append(b)
    return ParsedWord._from_factors(bw.bottom_rank, factors)


def word_pivot_convert(text, source, target, fmt="text", rank=None, cuts=None):
    """What ``ptab convert`` printed (less the newline) when every model
    pivoted through a parsed word; raises as it did."""
    if source == "biword":
        pw = parsed_of_biword(Biword.from_text(text))
    elif source == "matrix":
        pw = parsed_of_biword(biword_from_matrix(NNMatrix.from_text(text)))
    else:
        pw = _read_model(text, source, rank, cuts)
        if not isinstance(pw, ParsedWord):
            pw = word_from_ptableau(pw)
    if target in ("word", "parsed"):
        return pw.word.to_text() if target == "word" else pw.to_text()
    tab = ptableau_from_word(pw)
    if target in ("ptab", "dual"):
        tab = tab if target == "ptab" else dual(tab)
        return tab.to_json() if fmt == "json" else tab.to_text()
    if target == "rsk":
        pair = rsk(biword_of_parsed(pw))
        if fmt == "json":
            obj = {"P": pair.insertion.to_json_obj(), "Q": pair.recording.to_json_obj()}
            return json.dumps(obj, sort_keys=True)
        return pair.insertion.to_text() + "\n\n" + pair.recording.to_text()
    model = biword_of_parsed(pw) if target == "biword" else matrix_from_ptableau(tab)
    return json.dumps(model.to_json_obj(), sort_keys=True) if fmt == "json" else model.to_text()
