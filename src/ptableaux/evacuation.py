"""Jeu de taquin slides, evacuation, Lusztig involution, and the push
algorithms computing commutators of highest weight tensor products.

One slide rule, :func:`_slide`, moves every cell: evacuation slides blanks
inward, and the pushes slide one tensor factor's cells through the other's.
Each slides in place on one list-of-lists grid and freezes it at the end."""
from __future__ import annotations

from math import inf

from .core import PTableau, is_partition_shaped
from .errors import (
    InternalInvariantError,
    NotHighestWeight,
    NotPartitionShaped,
    NotTensorForm,
)
from .operators import rotate


def _slide(grid, r, c, step, value_at):
    """Move the cell at (r, c) of a list-of-lists grid in place, step by
    step (``step`` -1: up or left, +1: down or right), yielding each position.

    ``value_at(r, c)`` is the value the cell may swap with there, or None.
    The vertical neighbour is taken unless the horizontal one is strictly
    larger (going up) or smaller (going down); with neither the cell stops."""
    while True:
        vert, horiz = value_at(r + step, c), value_at(r, c + step)
        if vert is None and horiz is None:
            return
        if vert is not None and (horiz is None or step * vert <= step * horiz):
            tr, tc = r + step, c
        else:
            tr, tc = r, c + step
        grid[r][c], grid[tr][tc] = grid[tr][tc], grid[r][c]
        r, c = tr, tc
        yield r, c


def _inward(grid, pos):
    """The inward slide of the blank at ``pos`` of a list-of-lists grid."""
    return _slide(
        grid, *pos, -1, lambda r, c: grid[r][c] if r >= 0 and c >= 0 else None
    )


def inward_slide_step(grid, pos):
    """One inward step of the blank at ``pos``: it takes the content above
    unless the content on its left is strictly larger; with neither it is
    fixed.  Returns (grid, new position)."""
    grid = [list(row) for row in grid]
    new = next(_inward(grid, pos), pos)
    return tuple(map(tuple, grid)), new


def processable_corners(grid):
    """Outer corners: active blanks with no active blank immediately left or
    above (top-to-bottom, left-to-right order).

    A blank is active, still awaiting evacuation, iff some content lies
    weakly northwest of it; blanks whose whole northwest quadrant is blank
    have joined the evacuated region.  Read row by row, that is iff the
    blank's column is at or right of the leftmost content column met so far,
    so one pass finds every corner.
    """
    corners = []
    lead = inf  # leftmost content column met so far
    for r, row in enumerate(grid):
        above = lead  # leftmost content column of the rows above
        for c, v in enumerate(row):
            if v is not None:
                lead = min(lead, c)
            elif (
                lead <= c
                and (lead == c or row[c - 1] is not None)
                and (above > c or grid[r - 1][c] is not None)
            ):
                corners.append((r, c))
    return corners


def evacuate_with_paths(tab: PTableau):
    """Evacuation of a partition-shaped ptableau, recording each blank's path.

    Repeatedly takes the topmost-leftmost outer corner and slides it inward
    until fixed.  The result is the anti-partition-shaped lowest weight node
    of the input's component; the outcome is independent of corner order.
    """
    if not is_partition_shaped(tab):
        raise NotPartitionShaped("evacuation requires a partition-shaped input")
    grid = [list(row) for row in tab.grid]
    paths = []
    while corners := processable_corners(grid):
        paths.append((corners[0], *_inward(grid, corners[0])))
    return PTableau._from_rows(grid, tab.content_bound), paths


def evacuate(tab: PTableau) -> PTableau:
    return evacuate_with_paths(tab)[0]


def evacuation_as_operators(tab: PTableau):
    """Lowering-operator indices whose product equals evacuation.

    A blank path climbing from row j+1 to row i contributes f_j, f_{j-1},
    ..., f_i (in application order).
    """
    _, paths = evacuate_with_paths(tab)
    seq = []
    for path in paths:
        for (r1, _), (r2, _) in zip(path, path[1:]):
            if r2 == r1 - 1:
                seq.append(r1)  # blank row r1 -> r1-1 moves content down from row r1
    return tuple(seq)


def lusztig_involution(tab: PTableau) -> PTableau:
    """Rotation of the evacuation; defined here for highest weight inputs."""
    if not is_partition_shaped(tab):
        raise NotPartitionShaped("input must be partition shaped")
    return rotate(evacuate(tab))


# ---------------------------------------------------------------------------
# BSS perforated checks


def is_bss_perforated(grid) -> bool:
    """Ignoring blanks, rows weakly increase and columns strictly increase."""
    rows = [list(row) for row in grid]
    for row in rows:
        values = [v for v in row if v is not None]
        if any(a > b for a, b in zip(values, values[1:])):
            return False
    width = max((len(row) for row in rows), default=0)
    for c in range(width):
        values = [row[c] for row in rows if c < len(row) and row[c] is not None]
        if any(a >= b for a, b in zip(values, values[1:])):
            return False
    return True


def is_bss_pair(tagged_grid) -> bool:
    """Each tag class of a two-class grid is separately BSS perforated.

    Cells are None or (tag, value) pairs with tag in {0, 1}.
    """
    tags = {cell[0] for row in tagged_grid for cell in row if cell is not None}
    for tag in tags:
        projected = [
            [cell[1] if cell is not None and cell[0] == tag else None for cell in row]
            for row in tagged_grid
        ]
        if not is_bss_perforated(projected):
            return False
    return True


# ---------------------------------------------------------------------------
# push algorithms (commutators of highest weight tensor elements)

_MU, _NU = 0, 1


def _check_tensor(product: PTableau, mu_bound: int):
    """Raise unless ``product`` is highest weight and so is its left tensor
    factor: the values up to ``mu_bound``, the first ``mu_bound`` columns
    of its count matrix."""
    if not 0 <= mu_bound <= product.content_bound:
        raise NotTensorForm("split point outside the content bound")
    if not is_partition_shaped(product):
        raise NotHighestWeight("the tensor product is not highest weight")
    left = tuple(count[:mu_bound] for count in product.counts)
    if not is_partition_shaped(PTableau._from_counts(left, mu_bound)):
        raise NotHighestWeight("the left tensor factor is not highest weight")


def _push(product: PTableau, mu_bound: int, down: bool):
    """Shared engine for the two push algorithms; returns (result, states)."""
    _check_tensor(product, mu_bound)
    nu_bound = product.content_bound - mu_bound
    tagged = [
        [
            None
            if v is None
            else ((_MU, v) if v <= mu_bound else (_NU, v - mu_bound))
            for v in row
        ]
        for row in product.grid
    ]
    n = product.rows
    states = [tuple(tuple(row) for row in tagged)]
    if down:  # the left factor moves down and right, largest value first
        moving, other, step, value_order = _MU, _NU, 1, range(mu_bound, 0, -1)
    else:  # the right factor moves up and left, smallest value first
        moving, other, step, value_order = _NU, _MU, -1, range(1, nu_bound + 1)

    def other_at(r, c):
        """The other class's value at (r, c); None for a blank, a cell of
        the moving class or a position off the grid."""
        if 0 <= r < n and 0 <= c < len(tagged[r]):
            cell = tagged[r][c]
            if cell is not None and cell[0] == other:
                return cell[1]
        return None

    for v in value_order:
        cells = [
            (r, c)
            for r in range(n)
            for c in range(len(tagged[r]))
            if tagged[r][c] == (moving, v)
        ]
        cells.sort(key=lambda rc: rc[1], reverse=down)
        for r, c in cells:
            for _ in _slide(tagged, r, c, step, other_at):
                states.append(tuple(map(tuple, tagged)))
    # the right factor's content now comes first, the left factor's after it
    rows_values = [
        [v if tag == _NU else v + nu_bound for tag, v in filter(None, row)]
        for row in tagged
    ]
    result = PTableau._from_rows(rows_values, mu_bound + nu_bound)
    if not is_partition_shaped(result):
        raise InternalInvariantError("push output is not highest weight")
    return result, states


def push_down(product: PTableau, mu_bound: int) -> PTableau:
    """Push the left factor's content down through the right factor's,
    largest value first, each cell from its strip tail to its head."""
    return _push(product, mu_bound, down=True)[0]


def push_up(product: PTableau, mu_bound: int) -> PTableau:
    """Push the right factor's content up through the left factor's,
    smallest value first, each cell from its strip head to its tail."""
    return _push(product, mu_bound, down=False)[0]


def push_states(product: PTableau, mu_bound: int, down: bool = True):
    """Intermediate two-class grids of a push run (for invariant checking)."""
    return _push(product, mu_bound, down=down)[1]
