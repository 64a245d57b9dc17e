"""Core model: validation, justification, weights, parsings, predicates."""
from collections import deque

import pytest

from conftest import all_words, all_words_upto, tab
from ptableaux import (
    ParsedWord,
    PTableau,
    Word,
    all_parsings,
    is_anti_partition_shaped,
    is_minimally_parsed,
    is_partition_shaped,
    is_yamanouchi,
    left_justify,
    minimal_parsing,
    ptableau_from_word,
    restrict,
    right_justify,
    row_equivalent,
    validate_ptableau,
)
from ptableaux.errors import (
    ColumnStrictViolation,
    DimensionMismatch,
    InvalidParsing,
    PTableauError,
    ShadowViolation,
    StripViolation,
)

B = None  # blank shorthand for literal grids


class TestWordsAndParsings:
    def test_word_text_roundtrip(self):
        w = Word.from_text("2122331331")
        assert w.rank == 3 and len(w) == 10
        assert w.to_text() == "2122331331"
        big = Word(12, (11, 2, 12))
        assert Word.from_text(big.to_text(), 12) == big

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            Word(2, (3,))

    def test_bool_letters_rejected(self):
        with pytest.raises(ValueError):
            Word(2, [True, 2])

    def test_parsed_word_factors(self):
        pw = ParsedWord.from_text("21|22|331|331")
        assert pw.factors == ((2, 1), (2, 2), (3, 3, 1), (3, 3, 1))
        assert pw.num_factors == 4
        assert pw.to_text() == "21|22|331|331"

    def test_empty_factor_text(self):
        pw = ParsedWord.from_text("4433|4422|333|44|4111|2222|33||444")
        assert pw.num_factors == 9
        assert pw.factors[7] == ()
        assert pw.to_text() == "4433|4422|333|44|4111|2222|33||444"

    def test_invalid_factor_rejected(self):
        with pytest.raises(InvalidParsing):
            ParsedWord.from_text("12")

    def test_minimal_parsing_worked_example(self):
        w = Word.from_text("44334422333444111222233444")
        assert minimal_parsing(w).to_text() == "4433|4422|333|444111|2222|33|444"

    def test_minimal_parsing_weakly_decreasing_word_is_single_factor(self):
        w = Word.from_text("33221")
        assert minimal_parsing(w).num_factors == 1

    def test_minimal_parsing_has_fewest_factors_exhaustive(self):
        for w in all_words_upto(3, 6):
            best = minimal_parsing(w).num_factors
            for pw in all_parsings(w):
                assert pw.num_factors >= best


class TestValidate:
    def test_intro_grid_is_valid_and_canonicalizes(self):
        # the 6-column layout is a valid filling but not the class
        # representative: canonical width equals the longest weakly
        # decreasing subword of the underlying word, which is 5
        loose = [
            [B, B, 1, B, 3, 4],
            [B, 1, 2, 2, B, B],
            [3, 3, 4, 4, B, B],
        ]
        t = validate_ptableau(loose)
        assert t.cols == 5
        assert t.grid == (
            (B, 1, B, 3, 4),
            (1, 2, 2, B, B),
            (3, 3, 4, 4, B),
        )

    def test_column_strict_violation(self):
        with pytest.raises(ColumnStrictViolation):
            validate_ptableau([[1], [1]])

    def test_two_by_two_antidiagonal_valid(self):
        t = validate_ptableau([[B, 2], [1, B]])
        assert t.grid == ((B, 2), (1, B))

    def test_strip_violation(self):
        with pytest.raises(StripViolation):
            validate_ptableau([[1, B], [B, 1]])

    def test_shadow_violation(self):
        with pytest.raises(ShadowViolation):
            validate_ptableau([[B, 2, B], [B, B, 1]])

    def test_blank_columns_stripped(self):
        t = validate_ptableau([[1, B, 2], [B, B, B]])
        assert t.cols == 2
        assert t.grid == ((1, 2), (B, B))

    def test_pf_outputs_validate_exhaustively(self):
        for w in all_words_upto(3, 5) + all_words_upto(4, 4):
            t = ptableau_from_word(w)
            again = validate_ptableau(t.grid, t.content_bound)
            assert again == t


class TestJustification:
    def test_left_justify_worked_pair(self):
        loose = [
            [B, B, B, B, 1, 1, 4],
            [B, B, 1, 1, B, 2, 5],
            [1, 2, 3, 4, 4, 5, 6],
        ]
        expected = (
            (B, B, B, 1, 1, 4, B),
            (B, 1, 1, 2, B, B, 5),
            (1, 2, 3, 4, 4, 5, 6),
        )
        assert left_justify(loose) == expected

    def test_left_justify_idempotent(self):
        for w in all_words_upto(3, 5):
            g = ptableau_from_word(w).grid
            assert left_justify(g) == g
            assert left_justify(left_justify(g)) == left_justify(g)

    def test_right_justify_worked_example(self):
        assert right_justify([[B, 1, 1, 1, 2], [1, 2, 2, 3, B]]) == (
            (B, 1, 1, 1, 2),
            (1, B, 2, 2, 3),
        )

    def test_round_trip_between_justified_forms(self):
        for w in all_words(3, 4):
            g = ptableau_from_word(w).grid
            star = right_justify(g)
            assert left_justify(star) == g
            assert right_justify(g) == star

    def test_left_justification_is_class_minimum(self):
        # oracle: breadth-first search over all single valid blank swaps
        def neighbors(grid):
            rows = [list(r) for r in grid]
            out = []
            for r in range(len(rows)):
                for c in range(len(rows[0]) - 1):
                    a, b = rows[r][c], rows[r][c + 1]
                    if (a is None) != (b is None):
                        g2 = [row[:] for row in rows]
                        g2[r][c], g2[r][c + 1] = b, a
                        try:
                            validate_ptableau(g2)
                        except ValueError:
                            continue
                        # class members keep the same column count; grids
                        # whose canonical form shrank left the class
                        if validate_ptableau(g2).cols != len(grid[0]):
                            continue
                        out.append(tuple(tuple(row) for row in g2))
            return out

        for w in all_words(3, 4):
            start = ptableau_from_word(w).grid
            if not start or not start[0]:
                continue
            seen = {start}
            queue = deque([start])
            while queue:
                g = queue.popleft()
                for h in neighbors(g):
                    if h not in seen:
                        seen.add(h)
                        queue.append(h)
            lj = left_justify(start)
            assert lj in seen
            for member in seen:
                assert left_justify(member) == lj


class TestRowEquivalence:
    def test_worked_pair_equivalent(self):
        a = [
            [B, B, B, B, 1, 1, 4],
            [B, B, 1, 1, B, 2, 5],
            [1, 2, 3, 4, 4, 5, 6],
        ]
        b = [
            [B, B, B, 1, 1, 4, B],
            [B, 1, 1, 2, B, B, 5],
            [1, 2, 3, 4, 4, 5, 6],
        ]
        assert row_equivalent(a, b)

    def test_reflexive(self):
        g = ptableau_from_word(Word.from_text("2122331331")).grid
        assert row_equivalent(g, g)

    def test_wider_stretch_not_equivalent(self):
        narrow = [[B, 1, 1, 1, 2], [1, 2, 2, 3, B]]
        wide = [[B, 1, 1, 1, 2, B], [1, 2, 2, B, B, 3]]
        assert not row_equivalent(narrow, wide)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            row_equivalent([[1]], [[1], [2]])

    def test_weight_invariant_under_equivalence(self):
        a = [
            [B, B, B, B, 1, 1, 4],
            [B, B, 1, 1, B, 2, 5],
            [1, 2, 3, 4, 4, 5, 6],
        ]
        assert validate_ptableau(a).weight() == (3, 4, 7)


class TestWeightAndRestrict:
    def test_weight_of_four_row_example(self):
        pw = ParsedWord.from_text("44433222111|4443322|44333|44")
        assert ptableau_from_word(pw).weight() == (3, 5, 7, 10)

    def test_blank_row_weight_zero(self):
        t = ptableau_from_word(Word(3, (1, 1)))
        assert t.weight() == (2, 0, 0)

    def test_weight_of_highest_weight_example(self):
        t = ptableau_from_word(ParsedWord.from_text("111|22111|2221|33211|332|33"))
        assert t.weight() == (9, 7, 6)

    def test_restrict_drops_blank_columns_and_justifies(self):
        t = tab(
            ". . . . . . . . 4 4 5\n"
            ". . . . 1 1 2 . . . 6\n"
            ". . 1 1 2 . . 4 5 6 7\n"
            "1 1 2 3 3 3 4 6 6 . ."
        )
        assert restrict(t, 2).grid == (
            (B, B, 1, 1, 2, B, 6),
            (1, 1, 2, 4, 5, 6, 7),
        )

    def test_restrict_blank_rows_empty(self):
        t = ptableau_from_word(Word(4, (1, 1)))
        assert restrict(t, 3).cols == 0

    def test_restrict_of_intro(self):
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        assert restrict(t, 1).grid == ((B, 1, B, 3, 4), (1, 2, 2, B, B))

    def test_restrict_same_from_either_justification(self):
        for w in all_words(3, 5):
            t = ptableau_from_word(w)
            star = right_justify(t.grid)
            for i in (1, 2):
                pair = [star[i - 1], star[i]]
                values = [[v for v in row if v is not None] for row in pair]
                from ptableaux.core import _pack_rows

                assert PTableau(
                    _pack_rows(values, 2), t.content_bound
                ) == restrict(t, i)


class TestShapePredicates:
    def test_not_partition_shaped_example(self):
        t = tab(". . . . 1 1 4\n. . 1 1 . 2 5\n1 2 3 4 4 5 6")
        assert not is_partition_shaped(t)

    def test_partition_shaped_example(self):
        t = tab("1 1 1 1 1 4 4\n. 2 . 4 4 6 .\n. . 3 . 5 . .")
        assert is_partition_shaped(t)

    def test_full_rectangle_both(self):
        t = tab("1 1\n2 2")
        assert is_partition_shaped(t) and is_anti_partition_shaped(t)

    def test_highest_weight_word_example(self):
        t = ptableau_from_word(ParsedWord.from_text("111|22111|2221|33211|332|33"))
        assert is_partition_shaped(t)

    def test_empty_is_both(self):
        t = ptableau_from_word(Word(3, ()))
        assert is_partition_shaped(t) and is_anti_partition_shaped(t)

    def test_antidiagonal_is_neither(self):
        t = validate_ptableau([[B, 1], [1, B]])
        assert not is_partition_shaped(t) and not is_anti_partition_shaped(t)


class TestYamanouchiAndMinimality:
    def test_yamanouchi_examples(self):
        assert is_yamanouchi(Word.from_text("1112211122213321133233"))
        assert not is_yamanouchi(Word.from_text("21"))
        assert is_yamanouchi(Word.from_text("12"))

    def test_minimally_parsed_iff_minimal_parsing(self):
        for w in all_words_upto(3, 5):
            t = ptableau_from_word(minimal_parsing(w))
            assert is_minimally_parsed(t)

    def test_non_minimal_parsing_detected(self):
        pw = ParsedWord.from_text("3|31")
        assert not is_minimally_parsed(ptableau_from_word(pw))

    def test_letter_cell_order_respects_shadows(self):
        # later letters always land outside the northwest shadow of the
        # cells of earlier letters
        for w in all_words_upto(3, 5):
            pw = minimal_parsing(w)
            t = ptableau_from_word(pw)
            order = []
            for v in range(1, t.content_bound + 1):
                order.extend(t.cells_of(v))
            for a in range(len(order)):
                for b in range(a + 1, len(order)):
                    (ra, ca), (rb, cb) = order[a], order[b]
                    assert not (rb <= ra and cb <= ca)


class TestTextFormats:
    def test_text_roundtrip(self):
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        assert PTableau.from_text(t.to_text(), 4) == t

    def test_json_roundtrip(self):
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        assert PTableau.from_json(t.to_json()).grid == t.grid

    def test_json_without_grid_list_is_typed_error(self):
        for bad in ("{}", '{"grid": 5}', '{"grid": [5]}', "[1, 2]", "3"):
            with pytest.raises(PTableauError):
                PTableau.from_json(bad)

    def test_bool_cells_rejected(self):
        with pytest.raises(PTableauError):
            PTableau.from_json('{"grid": [[true, 2]]}')
        with pytest.raises(PTableauError):
            validate_ptableau([[1, True]])

    def test_parse_errors_are_typed(self):
        for text in ("1 x", "1 .\n2 2.5"):
            with pytest.raises(PTableauError):
                PTableau.from_text(text)
        for text in ("{bad", ""):
            with pytest.raises(PTableauError):
                PTableau.from_json(text)
        for cell in (1.5, 0, -2, "1"):
            with pytest.raises(PTableauError):
                PTableau([[cell]])

    def test_word_text_errors_are_typed(self):
        with pytest.raises(PTableauError):
            Word.from_text("1x")
        with pytest.raises(PTableauError):
            Word.from_text("1,x")
        with pytest.raises(PTableauError):
            Word.from_text("13", rank=2)
        with pytest.raises(PTableauError):
            Word(-1, [])

    def test_parsed_word_text_errors_are_typed(self):
        with pytest.raises(PTableauError):
            ParsedWord.from_text("2|x")
        with pytest.raises(PTableauError):
            ParsedWord.from_text("2,1|3,y")
        with pytest.raises(PTableauError):
            ParsedWord.from_text("2|0")

    def test_content_bound_below_largest_value_is_typed(self):
        with pytest.raises(PTableauError):
            validate_ptableau([[1, 2]], 1)
        with pytest.raises(PTableauError):
            PTableau.from_text("1 2", 1)
