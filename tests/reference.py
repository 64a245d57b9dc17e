"""Independent references for the canonical packing and the ptableau operators.

``search_pack_rows`` is the column search the library used before it read
each cell's column off the width law: it tries every column from the left
until the ptableau conditions hold.  The grid rule below finds the moving
value on the justified two-row restriction, as the paper states it, and
packs only with ``search_pack_rows``, so nothing here calls the library's
packer or its operators.
"""


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
