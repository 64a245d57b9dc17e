"""Laws checked on generated ptableaux.

By the word-to-ptableau bijection every per-row content is the content of
exactly one ptableau, for any ``content_bound`` at or above its largest
value, so arbitrary contents generate arbitrary ptableaux.  Validation is
checked on arbitrary rectangular grids, valid or not, against the pairwise
check in ``reference.py``.
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, permutations
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from ptableaux import (
    Biword,
    NNMatrix,
    ParsedWord,
    Word,
    biword_from_matrix,
    biword_from_parsed,
    component,
    dual,
    evacuate,
    evacuation_as_operators,
    export_dot,
    export_json,
    highest_weight_ptableau,
    is_anti_partition_shaped,
    is_bss_pair,
    is_minimally_parsed,
    is_partition_shaped,
    left_justify,
    lowering_operator,
    matrix_from_biword,
    matrix_from_ptableau,
    minimal_parsing,
    parsed_from_biword,
    processable_corners,
    ptab_epsilon,
    ptab_lowering,
    ptab_phi,
    ptab_raising,
    ptableau_from_word,
    push_down,
    push_states,
    push_up,
    raising_operator,
    restrict,
    right_justify,
    row_equivalent,
    rsk,
    tensor,
    to_highest_weight,
    to_lowest_weight,
    validate_ptableau,
    weight,
    word_condition_counting,
    word_from_ptableau,
)
from ptableaux import core
from ptableaux.cli import _read_model, main
from ptableaux.core import PTableau
from ptableaux.errors import ColumnStrictViolation, PTableauError
from ptableaux.evacuation import inward_slide_step
from conftest import record_skeleton, skeleton_cache, skeleton_key
from reference import (
    biword_of_parsed,
    exhaust,
    grid_anti_partition_shaped,
    grid_epsilon,
    grid_lowering,
    grid_minimally_parsed,
    grid_partition_shaped,
    grid_phi,
    grid_raising,
    grid_tensor,
    grid_text,
    pairwise_check_grid,
    parsed_of_biword,
    quadrant_corners,
    right_justified,
    run_blank,
    search_pack_rows,
    slide_step,
    word_pivot_convert,
)


@st.composite
def contents(draw, min_rows=0, max_rows=7, max_value=9, max_row=5):
    """Per-row contents (values with gaps, rows unsorted) and a bound."""
    n = draw(st.integers(min_rows, max_rows))
    values = st.integers(1, max_value)
    rows = draw(st.lists(st.lists(values, max_size=max_row), min_size=n, max_size=n))
    top = max((v for row in rows for v in row), default=0)
    return rows, top + draw(st.integers(0, 2))


def ptableaux(min_rows=2, **kwargs):
    return contents(min_rows=min_rows, **kwargs).map(
        lambda c: PTableau._from_rows(*c)
    )


@st.composite
def parsed_words(draw, max_rank=6, max_letters=12):
    """A word of rank up to 6 and up to 12 letters, with its minimal parsing
    plus extra cuts, empty factors included; its ptableau has gaps in its
    content where factors are empty."""
    rank = draw(st.integers(1, max_rank))
    letters = draw(st.lists(st.integers(1, rank), max_size=max_letters))
    word = Word(rank, letters)
    extra = draw(st.lists(st.integers(0, len(letters)), max_size=3))
    return ParsedWord(word, sorted(minimal_parsing(word).cuts + tuple(extra)))


@st.composite
def grids(draw, rows=None):
    """A rectangular grid of blanks and values 1-5, valid or not, with
    ``rows`` rows (0-5 when None), and a content bound: None or 0-7.  The
    number of values written is drawn first, so sparse grids, which break
    fewer conditions at once, come as often as dense ones."""
    n = draw(st.integers(0, 5)) if rows is None else rows
    width = draw(st.integers(0, 6))
    grid = [[None] * width for _ in range(n)]
    for _ in range(draw(st.integers(0, n * width))):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))
        grid[r][c] = draw(st.integers(1, 5))
    return grid, draw(st.none() | st.integers(0, 7))


def _violating_pairs(grid):
    """How many pairs of cells break a column, strip or shadow condition."""
    cells = [(r, c, v) for r, row in enumerate(grid) for c, v in enumerate(row) if v]
    n = 0
    for (r1, c1, v1), (r2, c2, v2) in combinations(cells, 2):  # r1 <= r2
        n += c1 == c2 and v1 >= v2  # column
        n += v1 == v2 and r1 < r2 and c1 <= c2  # strip
        n += v1 > v2 and c1 <= c2 or v1 < v2 and r1 == r2 and c2 <= c1  # shadow
    return n


def _reference_validation(grid, bound):
    """The pairwise check, the bound check, and the ptableau of the rows."""
    pairwise_check_grid(grid)
    rows = [[v for v in row if v is not None] for row in grid]
    top = max((v for row in rows for v in row), default=0)
    if bound is None:
        bound = top
    elif bound < top:
        raise PTableauError("content_bound below largest value present")
    return PTableau._from_rows(rows, bound)


def _outcome(validate, grid, bound):
    try:
        return validate(grid, bound), None
    except PTableauError as exc:
        return None, exc


def _packed(tab):
    return tab.rows, tab.content_bound, tab.grid


@st.composite
def valid_grids(draw):
    """A valid, generally not justified grid: a content's reference packing,
    widened by up to 3 blank columns, after random moves of a cell one
    column right onto a blank that keep the pairwise check passing."""
    rows, _ = draw(contents(max_value=12))
    packed = search_pack_rows(rows, len(rows))
    width = (len(packed[0]) if packed else 0) + draw(st.integers(0, 3))
    grid = [list(row) + [None] * (width - len(row)) for row in packed]
    for _ in range(draw(st.integers(0, 20))):
        movable = [
            (r, c) for r, row in enumerate(grid) for c in range(width - 1)
            if row[c] is not None and row[c + 1] is None
        ]
        if not movable:
            break
        r, c = draw(st.sampled_from(movable))
        row = grid[r]
        row[c], row[c + 1] = None, row[c]
        try:
            pairwise_check_grid(grid)
        except PTableauError:
            row[c], row[c + 1] = row[c + 1], None
    return [tuple(row) for row in grid]


class TestPacking:
    @settings(max_examples=400, deadline=None)
    @given(contents())
    def test_width_law_matches_search(self, content):
        rows, bound = content
        assert PTableau._from_rows(rows, bound).grid == search_pack_rows(rows, len(rows))

    @settings(max_examples=400, deadline=None)
    @given(contents(max_value=12))
    def test_views_match_reference_packing_and_render(self, content):
        # values past 9 take two digits; rows may be empty and the bound
        # may exceed the largest value
        rows, bound = content
        counts = tuple(tuple(row.count(s) for s in range(1, bound + 1)) for row in rows)
        tab = PTableau._from_counts(counts, bound)
        grid = search_pack_rows(rows, len(rows))
        cols = len(grid[0]) if grid else 0
        assert (tab.grid, tab.cols, tab.to_text()) == (grid, cols, grid_text(grid))
        obj = {"rows": len(rows), "cols": cols, "grid": [list(row) for row in grid]}
        assert tab.to_json() == json.dumps(obj, sort_keys=True)

    def test_each_node_packs_once_whatever_views_are_read(self):
        packs = []
        original = core._pack_rows
        core._pack_rows = lambda counts: packs.append(counts) or original(counts)
        views = (
            PTableau.to_text, PTableau.to_json, lambda t: t.grid, lambda t: t.cols
        )
        try:
            for order in permutations(views):
                packs.clear()
                tab = PTableau._from_rows([[1, 3], [2, 2], [], [10]], 11)
                for read in order + order:
                    read(tab)
                assert packs == [tab.counts]
        finally:
            core._pack_rows = original

    @settings(max_examples=300, deadline=None)
    @given(valid_grids())
    def test_justification_matches_reference(self, grid):
        width = len(grid[0]) if grid else 0
        rows = [[v for v in row if v is not None] for row in grid]
        left = search_pack_rows(rows, len(rows))
        assert left_justify(grid) == tuple(
            row + (None,) * (width - len(row)) for row in left
        )
        assert right_justify(grid) == tuple(
            (None,) * (width - len(row)) + row for row in right_justified(grid)
        )


class TestValidation:
    @settings(max_examples=800, deadline=None)
    @given(grids())
    def test_matches_pairwise_reference(self, sample):
        grid, bound = sample
        tab, error = _outcome(validate_ptableau, grid, bound)
        expected, expected_error = _outcome(_reference_validation, grid, bound)
        assert type(error) is type(expected_error)
        if error is None:
            assert tab == expected and tab.grid == expected.grid
        elif isinstance(error, ColumnStrictViolation) or _violating_pairs(grid) <= 1:
            # with several violating pairs another pair can be named
            assert str(error) == str(expected_error)

    @settings(max_examples=150, deadline=None)
    @given(grids())
    def test_is_idempotent(self, sample):
        tab, error = _outcome(validate_ptableau, *sample)
        if error is None:
            again = validate_ptableau(tab.grid, tab.content_bound)
            assert again == tab and again.to_text() == tab.to_text()

    @settings(max_examples=150, deadline=None)
    @given(st.data(), grids())
    def test_row_equivalence_is_equal_packing(self, data, sample):
        grid, _ = sample
        if data.draw(st.booleans()):  # the same rows, each shuffled
            other = [data.draw(st.permutations(row)) for row in grid]
        else:
            other = data.draw(grids(rows=len(grid)))[0]
        same_width = not grid or len(grid[0]) == len(other[0])
        packs = [
            search_pack_rows([[v for v in row if v is not None] for row in g], len(g))
            for g in (grid, other)
        ]
        assert row_equivalent(grid, other) == (same_width and packs[0] == packs[1])


class TestOperatorProperties:
    @settings(max_examples=300, deadline=None)
    @given(ptableaux())
    def test_operators_match_grid_rule(self, tab):
        for i in range(1, tab.rows):
            for op, ref in ((ptab_raising, grid_raising), (ptab_lowering, grid_lowering)):
                out = op(tab, i)
                expected = ref(tab, i)
                if expected is None:
                    assert out is None
                else:
                    assert out.grid == expected
                    assert out.content_bound == tab.content_bound
            assert ptab_epsilon(tab, i) == grid_epsilon(tab, i)
            assert ptab_phi(tab, i) == grid_phi(tab, i)

    @settings(max_examples=300, deadline=None)
    @given(ptableaux())
    def test_epsilon_phi_are_restriction_blanks(self, tab):
        for i in range(1, tab.rows):
            top, bottom = restrict(tab, i).grid
            assert ptab_epsilon(tab, i) == top.count(None)
            assert ptab_phi(tab, i) == bottom.count(None)

    @settings(max_examples=300, deadline=None)
    @given(ptableaux())
    def test_raising_and_lowering_are_partial_inverses(self, tab):
        for i in range(1, tab.rows):
            up = ptab_raising(tab, i)
            if up is not None:
                assert ptab_lowering(up, i) == tab
            down = ptab_lowering(tab, i)
            if down is not None:
                assert ptab_raising(down, i) == tab

    @settings(max_examples=300, deadline=None)
    @given(ptableaux(min_rows=0), parsed_words())
    def test_exhaustion_matches_restart_at_one(self, tab, pw):
        for obj, rank in (
            (tab, tab.rows),
            (pw, pw.rank),
            (pw.word, pw.rank),
            (ptableau_from_word(pw), pw.rank),
        ):
            assert to_highest_weight(obj) == exhaust(obj, raising_operator, rank)
            assert to_lowest_weight(obj) == exhaust(obj, lowering_operator, rank)


class TestCountMatrix:
    @settings(max_examples=300, deadline=None)
    @given(contents())
    def test_lazy_grid_is_reference_packing(self, content):
        rows, bound = content
        tab = PTableau._from_rows(rows, bound)
        expected = search_pack_rows(rows, len(rows))
        assert tab.grid == expected
        assert tab.cols == (len(expected[0]) if expected else 0)
        assert tab.counts == tuple(
            tuple(row.count(s) for s in range(1, bound + 1)) for row in rows
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data(), contents(max_rows=3, max_value=3))
    def test_equality_and_hash_follow_the_packed_grid(self, data, content):
        rows, bound = content
        tab = PTableau._from_rows(rows, bound)
        # the same contents in another order, and an unrelated small tableau
        shuffled = [data.draw(st.permutations(row)) for row in rows]
        others = [
            PTableau._from_rows(shuffled, bound),
            data.draw(ptableaux(min_rows=0, max_rows=3, max_value=3)),
        ]
        for other in others:
            assert (tab == other) == (_packed(tab) == _packed(other))
            if tab == other:
                assert hash(tab) == hash(other)

    @settings(max_examples=300, deadline=None)
    @given(ptableaux(min_rows=0))
    def test_validated_grid_gives_back_the_tableau(self, tab):
        again = PTableau(tab.grid, tab.content_bound)
        assert again == tab and hash(again) == hash(tab)

    @settings(max_examples=300, deadline=None)
    @given(ptableaux(min_rows=0))
    def test_shape_predicates_match_grid_definitions(self, tab):
        assert is_partition_shaped(tab) == grid_partition_shaped(tab.grid)
        assert is_anti_partition_shaped(tab) == grid_anti_partition_shaped(tab.grid)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 5))
    def test_tensor_matches_grid_reference(self, data, n):
        left, right = (
            data.draw(ptableaux(min_rows=n, max_rows=n)) for _ in range(2)
        )
        product = tensor(left, right)
        assert product.grid == grid_tensor(left, right)
        assert product.content_bound == left.content_bound + right.content_bound

    @settings(max_examples=300, deadline=None)
    @given(ptableaux(min_rows=0))
    def test_matrix_is_transpose_of_counts(self, tab):
        entries = matrix_from_ptableau(tab).entries
        assert len(entries) == tab.content_bound
        for s, column in enumerate(entries):
            assert column == tuple(count[s] for count in tab.counts)
            assert column == tuple(row.count(s + 1) for row in tab.grid)

    @settings(max_examples=300, deadline=None)
    @given(ptableaux(min_rows=0))
    def test_counting_word_condition_reads_the_grid(self, tab):
        # the i's in rows i..i+k against the (i+1)'s in rows i+1..i+k+1
        grid = tab.grid
        expected = all(
            sum(row.count(i) for row in grid[i - 1 : i + k])
            >= sum(row.count(i + 1) for row in grid[i : i + k + 1])
            for i in range(1, tab.content_bound)
            for k in range(tab.rows)
        )
        assert word_condition_counting(tab) == expected


class TestDual:
    @settings(max_examples=300, deadline=None)
    @given(contents(min_rows=0))
    def test_dual_transposes_counts_and_is_an_involution(self, content):
        rows, bound = content
        tab = PTableau._from_rows(rows, bound)
        flipped = dual(tab)
        assert flipped.rows == bound and flipped.content_bound == len(rows)
        assert flipped.counts == tuple(
            tuple(row.count(s) for row in rows) for s in range(1, bound + 1)
        )
        assert dual(flipped) == tab


class TestGridReaders:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), contents())
    def test_corners_match_quadrant_rescan(self, data, content):
        rows, _ = content
        packed = search_pack_rows(rows, len(rows))
        width = len(packed[0]) if packed else 0
        blanks = data.draw(st.lists(st.booleans(), min_size=len(rows) * width))
        grid = [
            [None if blanks[r * width + c] else v for c, v in enumerate(row)]
            for r, row in enumerate(packed)
        ]
        assert processable_corners(grid) == quadrant_corners(grid)

    @settings(max_examples=300, deadline=None)
    @given(contents(), parsed_words())
    def test_minimal_parsing_matches_strip_cells(self, content, pw):
        rows, bound = content
        grid = search_pack_rows(rows, len(rows))
        tab = PTableau._from_rows(rows, bound)
        assert is_minimally_parsed(tab) == grid_minimally_parsed(grid, bound)
        tab = ptableau_from_word(pw)
        expected = grid_minimally_parsed(tab.grid, tab.content_bound)
        assert is_minimally_parsed(tab) == expected
        if pw.word.letters:  # the empty word's one factor is empty
            assert is_minimally_parsed(ptableau_from_word(pw.word))


class TestEvacuationAndPush:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), parsed_words())
    def test_slides_match_the_per_step_rebuild(self, data, pw):
        top = to_highest_weight(ptableau_from_word(pw))[0].grid
        width = len(top[0]) if top else 0
        blanks = data.draw(st.lists(st.booleans(), min_size=len(top) * width))
        holed = tuple(
            tuple(None if blanks[r * width + c] else v for c, v in enumerate(row))
            for r, row in enumerate(top)
        )
        for grid in (top, holed):
            for pos in [(r, c) for r, row in enumerate(grid)
                        for c, v in enumerate(row) if v is None]:
                assert inward_slide_step(grid, pos) == slide_step(grid, pos)
                expected, path = grid, [pos]
                while True:
                    expected, new = slide_step(expected, path[-1])
                    if new == path[-1]:
                        break
                    path.append(new)
                assert run_blank(grid, pos) == (expected, tuple(path))

    @settings(max_examples=200, deadline=None)
    @given(parsed_words())
    def test_evacuation_is_lowest_weight_and_an_operator_product(self, pw):
        tab = to_highest_weight(ptableau_from_word(pw))[0]
        target = evacuate(tab)
        # the paper's law: the evacuation word is the lowering sequence
        assert (target, evacuation_as_operators(tab)) == to_lowest_weight(tab)
        for i in evacuation_as_operators(tab):
            tab = ptab_lowering(tab, i)
            assert tab is not None
        assert tab == target

    @settings(max_examples=150, deadline=None)
    @given(st.data(), parsed_words())
    def test_push_down_equals_push_up_through_bss_pairs(self, data, pw):
        right = ptableau_from_word(pw)
        n = right.rows
        # T_mu (x) T is highest weight iff eps_i(T) <= mu_i - mu_{i+1}
        gaps = [ptab_epsilon(right, i) for i in range(1, n)] + [0]
        gaps = [g + data.draw(st.integers(0, 2)) for g in gaps]
        mu = [sum(gaps[i:]) for i in range(n)]
        left = highest_weight_ptableau(mu, rows=n)
        product = tensor(left, right)
        assert is_partition_shaped(product)
        split = left.content_bound
        assert push_down(product, split) == push_up(product, split)
        for down in (True, False):
            for state in push_states(product, split, down=down):
                assert is_bss_pair(state)


def _shape(seed):
    return tuple(p for p in weight(to_highest_weight(seed)[0]) if p)


class TestTransport:
    """A component replayed from the skeleton of an isomorphic one, recorded
    on a seed of the other model, is the component searched cold."""

    @staticmethod
    def _check(seed, other):
        def views(g):
            return export_dot(g), export_json(g), g.nodes, g.edges

        with skeleton_cache(0):
            cold = views(component(seed))
        with skeleton_cache() as cache:
            key = record_skeleton(other)
            assert cache[key] and skeleton_key(seed) == key
            assert views(component(seed)) == cold

    @settings(max_examples=60, deadline=None)
    @given(contents(min_rows=1, max_rows=4, max_value=4, max_row=3))
    def test_ptableau_replays_a_parsed_word_skeleton(self, content):
        tab = PTableau._from_rows(*content)
        hw = highest_weight_ptableau(_shape(tab), rows=tab.rows)
        self._check(tab, word_from_ptableau(hw))

    @settings(max_examples=60, deadline=None)
    @given(parsed_words(max_rank=4, max_letters=8))
    def test_parsed_word_replays_a_ptableau_skeleton(self, pw):
        self._check(pw, highest_weight_ptableau(_shape(pw), rows=pw.rank))


def _with_rows(tab, n):
    """``tab`` with empty rows appended or trimmed to ``n`` rows."""
    rows = [list(row) for row in tab.row_values()]
    assert not any(rows[n:])
    return PTableau._from_rows((rows + [[]] * n)[:n], tab.content_bound)


@st.composite
def nn_biwords(draw):
    """The biword of a random matrix with zero rows and columns, its ranks
    raised by up to 2."""
    top, bottom = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cell = st.integers(0, 2) | st.just(0)
    entries = draw(st.lists(
        st.lists(cell, min_size=bottom, max_size=bottom), min_size=top, max_size=top
    ))
    bw = biword_from_matrix(NNMatrix(entries))
    return Biword(
        bw.top_rank + draw(st.integers(0, 2)),
        bw.bottom_rank + draw(st.integers(0, 2)),
        bw.columns,
    )


class TestRSK:
    @settings(max_examples=300, deadline=None)
    @given(parsed_words(), nn_biwords())
    def test_rsk_pair_is_two_highest_weights(self, pw, nbw):
        # T counts the r+1's over s+1 in counts[r][s]: Q is its highest
        # weight and P that of its dual, padded to the biword's ranks
        for bw in (biword_from_parsed(pw), nbw):
            over = matrix_from_biword(bw).entries  # over[s][r]
            counts = tuple(
                tuple(over[s][r] for s in range(bw.top_rank))
                for r in range(bw.bottom_rank)
            )
            t = PTableau._from_counts(counts, bw.top_rank)
            pair = rsk(bw)
            q = _with_rows(to_highest_weight(t)[0], bw.top_rank)
            p = _with_rows(to_highest_weight(dual(t))[0], bw.bottom_rank)
            assert (pair.insertion, pair.recording) == (p, q)


class TestCountPivot:
    """``ptab convert`` reads every model into one ptableau and writes every
    target from its count matrix; the word pivot it replaced is the oracle."""

    targets = ("word", "parsed", "ptab", "dual", "biword", "matrix", "rsk")

    # Inputs that read as a ptableau with content bound 0, to which the word
    # pivot added one empty factor, and the outputs that changed, by
    # (target, format); every other output of theirs is unchanged.
    no_factor = {
        ("dual", "json"): '{"cols": 0, "grid": [], "rows": 0}',
        ("biword", "json"): '{"bottomRank": 0, "columns": [], "topRank": 0}',
        ("matrix", "json"): '{"cols": 0, "entries": [], "rows": 0}',
        ("rsk", "json"): (
            '{"P": {"cols": 0, "grid": [], "rows": 0},'
            ' "Q": {"cols": 0, "grid": [], "rows": 0}}'
        ),
    }
    # with two rows, which the added factor's matrix row and biword kept
    two_empty_rows = {**no_factor, ("matrix", "text"): "", ("rsk", "text"): "\n\n"}
    bound_zero = [
        ("matrix", "", no_factor),
        ("ptab", "", no_factor),
        ("ptab", ". .\n. .", two_empty_rows),
        ("ptab", '{"grid": [[], []]}', two_empty_rows),
        ("biword", "", no_factor),
    ]

    @staticmethod
    def _run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["convert", *argv])
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _oracle(text, source, target, fmt, rank):
        try:
            return 0, word_pivot_convert(text, source, target, fmt, rank) + "\n", ""
        except PTableauError as exc:
            return 1, "", f"error: {exc}\n"

    def _check(self, source, text, rank=None):
        # inputs of content bound 0 are test_bound_zero_inputs_lose_the_added_factor's
        if source == "ptab" and _read_model(text).content_bound == 0:
            return
        if source in ("biword", "matrix") and not text.strip():
            return
        extra = () if rank is None else ("--rank", str(rank))
        for target in self.targets:
            for fmt in ("text", "json"):
                got = self._run("--from", source, "--to", target, "--format", fmt, *extra, text)
                assert got == self._oracle(text, source, target, fmt, rank)

    @settings(max_examples=25, deadline=None)
    @given(parsed_words())
    def test_words_and_parsed_words(self, pw):
        self._check("word", pw.word.to_text(), pw.rank)
        self._check("parsed", pw.to_text(), pw.rank)
        self._check("parsed", pw.to_text())

    @settings(max_examples=25, deadline=None)
    @given(contents())
    def test_ptableaux_and_matrices(self, content):
        tab = PTableau._from_rows(*content)
        self._check("ptab", tab.to_text())
        self._check("ptab", tab.to_json())
        self._check("matrix", matrix_from_ptableau(tab).to_text())

    @settings(max_examples=25, deadline=None)
    @given(nn_biwords())
    def test_biwords_and_their_matrices(self, bw):
        self._check("biword", bw.to_text())
        self._check("matrix", matrix_from_biword(bw).to_text())

    def test_bound_zero_inputs_lose_the_added_factor(self):
        for source, text, changes in self.bound_zero:
            for target in self.targets:
                for fmt in ("text", "json"):
                    got = self._run("--from", source, "--to", target, "--format", fmt, text)
                    old = self._oracle(text, source, target, fmt, None)
                    new = changes.get((target, fmt))
                    if new is None:
                        assert got == old
                    else:
                        assert got == (0, new + "\n", "") != old

    @settings(max_examples=200, deadline=None)
    @given(parsed_words(), nn_biwords())
    def test_biword_maps_are_compositions_through_counts(self, pw, bw):
        assert biword_from_parsed(pw) == biword_of_parsed(pw)
        assert parsed_from_biword(biword_of_parsed(pw)) == pw
        assert parsed_from_biword(bw) == parsed_of_biword(bw)


# A grammar of every subcommand and option of ``ptab`` but --help.  An
# option's value is well formed for it or, now and then, a malformed token
# from _BAD; an option may also lose its value or come from another
# subcommand.  Ranks stay at most 4, --max-nodes at most 100 and integers at
# most 10**4, so that every call is quick.
_BAD = ["", " ", "x", "-", "-1", "0", "|", "||", "{", '{"grid": 5}', "1,x", "1,,2", "e1", "10000"]
_TEXTS = [". 1\n1 .", "1 1\n2 .", "1 1 2\n2 3 .\n3 . .", ". .\n. .", "1\n1", "2 1", "1 2",
          '{"grid": [[1, 1], [2, null]]}', '{"grid": [[], []]}', "1 1 2\n2 1 1", "1 0\n2 1"]
_RARELY = st.sampled_from([False] * 19 + [True])  # st.integers would favour 0
_INTS = st.integers(-(10**4), 10**4).map(str)


@st.composite
def _words(draw):
    letters = draw(st.lists(st.sampled_from("1234"), max_size=6))
    # read as a ptableau, a digit string is one value: at most 4444
    text = draw(st.sampled_from(["", ","] if len(letters) <= 4 else [","])).join(letters)
    if letters and draw(st.booleans()):
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + "|" + text[cut:]
    return text


_INPUTS = st.one_of(_words(), st.sampled_from(_TEXTS + _BAD))
_PARTS = st.sampled_from(["", "0", "1", "2", "1,1", "2,1", "3,1", "2,1,1", "1,3", "2,-1", "x",
                          "1,1,1,1,1"])
_VALUES = {
    "--from": st.sampled_from(["word", "parsed", "ptab", "biword", "matrix", "auto"]),
    "--to": st.sampled_from(["word", "parsed", "ptab", "biword", "matrix", "dual", "rsk"]),
    "--type": st.sampled_from(["word", "ptab", "auto"]),
    "--format": st.sampled_from(["text", "json", "text", "json", "dot"]),  # dot: crystal's
    "--rank": st.integers(-1, 4).map(str),
    "--max-nodes": st.integers(-1, 100).map(str),
    "--length": _INTS,
    "--split": _INTS,
    "--parse": _words(),
    "--ops": st.sampled_from(["e1", "f1 f2", "e1,f3", "f1 f1 e2", "", "e", "x1", "f9", "e0"]),
    "--algorithm": st.sampled_from(["push-down", "push-up", "both"]),
    "--mu": _PARTS,
    "--nu": _PARTS,
    "--lambda": _PARTS,
    "--verify": None,  # a flag
}
for _option in ("--in", "--seed", "--left", "--right"):
    _VALUES[_option] = _INPUTS
# each subcommand's options, the required ones first
_COMMANDS = {
    "convert": (["--to"], ["--from", "--rank", "--parse", "--format"]),
    "apply": (["--ops", "--in"], ["--type", "--rank", "--parse", "--format"]),
    "hw": (["--in"], ["--type", "--rank", "--parse", "--format"]),
    "crystal": (["--seed"], ["--type", "--rank", "--parse", "--max-nodes", "--format"]),
    "decompose": (["--rank", "--length"], ["--max-nodes", "--format"]),
    "lr": (["--mu", "--nu", "--lambda", "--rank"], ["--verify"]),
    "evac": (["--in"], ["--format"]),
    "lusztig": (["--in"], ["--format"]),
    "commute": ([], ["--left", "--right", "--in", "--split", "--algorithm", "--format"]),
    "check": (["--in"], []),
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["bogus"]))
    required, optional = _COMMANDS.get(command, ([], []))
    options = [o for o in required if not draw(_RARELY)]
    options += [o for o in optional if draw(st.booleans())]
    if draw(_RARELY):  # another subcommand's option
        options.append(draw(st.sampled_from(sorted(_VALUES))))
    argv = [command]
    for option in draw(st.permutations(options)):
        argv.append(option)
        values = _VALUES[option]
        if values is not None and not draw(_RARELY):
            argv.append(draw(st.sampled_from(_BAD) if draw(_RARELY) else values))
    if command == "convert" or draw(_RARELY):  # the positional input
        argv.append(draw(_INPUTS))
    return argv


class TestCliMain:
    """``main`` answers every argv of the grammar with 0 or 1, and a 1 with a
    message; only argparse's usage errors leave it, as ``SystemExit(2)``."""

    @settings(max_examples=150, deadline=None)
    @given(cli_argvs())
    def test_main_returns_0_or_1_or_argparse_exits_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), patch("sys.stdin", io.StringIO("12")):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2 and err.getvalue().startswith("usage: ptab")
                return
        assert code in (0, 1)
        if code == 1:  # check reports an invalid grid on stdout
            assert err.getvalue().startswith("error: ") or "fail valid-ptableau" in out.getvalue()
