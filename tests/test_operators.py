"""Raising/lowering operators on words and ptableaux, statistics, rotation."""
import pytest

from conftest import all_words, all_words_upto, tab
from ptableaux import (
    ParsedWord,
    Word,
    apply_ops,
    epsilon,
    is_highest_weight,
    is_lowest_weight,
    is_partition_shaped,
    is_yamanouchi,
    lowering_operator,
    minimal_parsing,
    phi,
    ptab_epsilon,
    ptab_lowering,
    ptab_phi,
    ptab_raising,
    ptableau_from_word,
    raising_operator,
    rotate,
    rotate_word,
    to_highest_weight,
    validate_ptableau,
    word_lowering,
    word_raising,
)
from ptableaux.errors import IndexOutOfRange

B = None


class TestWordOperators:
    def test_raising_worked_example(self):
        w = ParsedWord.from_text("322|3311|222|3")
        assert word_raising(w, 1).to_text() == "322|3311|221|3"

    def test_raising_null_without_larger_letter(self):
        assert word_raising(Word.from_text("11", rank=2), 1) is None

    def test_lowering_single_letter(self):
        assert word_lowering(Word(2, (1,)), 1) == Word(2, (2,))

    def test_root_string_chain(self):
        w = Word.from_text("32233112223")
        chain = ["32233112213", "32133112213", "31133112213"]
        for expected in chain:
            w = word_raising(w, 1)
            assert w.to_text() == expected
        assert word_raising(w, 1) is None

    def test_mutually_inverse(self):
        for w in all_words_upto(3, 5):
            for i in (1, 2):
                up = word_raising(w, i)
                if up is not None:
                    assert word_lowering(up, i) == w
                down = word_lowering(w, i)
                if down is not None:
                    assert word_raising(down, i) == w

    def test_parsing_stability(self):
        for w in all_words_upto(3, 6):
            pw = minimal_parsing(w)
            for i in (1, 2):
                for op in (word_raising, word_lowering):
                    out = op(pw, i)
                    if out is not None:
                        assert out.cuts == pw.cuts  # ctor revalidates factors


class TestOperatorIndex:
    def test_out_of_range_is_typed(self):
        w = Word(3, (1, 2))
        for obj in (w, minimal_parsing(w), ptableau_from_word(w)):
            for i in (0, 3):
                for op in (raising_operator, lowering_operator, epsilon, phi):
                    with pytest.raises(
                        IndexOutOfRange, match=rf"^operator index {i} outside \[1\.\.2\]$"
                    ):
                        op(obj, i)


class TestPtabOperators:
    def test_raising_worked_example(self):
        t = tab(
            ". . . . . . . . 4 4 5\n"
            ". . . . 1 1 2 . . . 6\n"
            ". . 1 1 2 . . 4 5 6 7\n"
            "1 1 2 3 3 3 4 6 6 . ."
        )
        out = ptab_raising(t, 2)
        # the canonical form of the swapped grid: the moved 6 joins row 2
        # and the 7 slides one column left
        assert out == tab(
            ". . . . . . . . 4 4 5\n"
            ". . . . 1 1 2 . . 6 6\n"
            ". . 1 1 2 . . 4 5 7 .\n"
            "1 1 2 3 3 3 4 6 6 . ."
        )

    def test_partition_shaped_killed_by_raising(self):
        t = ptableau_from_word(ParsedWord.from_text("111|22111|2221|33211|332|33"))
        for i in (1, 2):
            assert ptab_raising(t, i) is None

    def test_raising_two_cell_example(self):
        t = ptableau_from_word(ParsedWord.from_text("21"))
        out = ptab_raising(t, 1)
        assert out.grid == ((1, 1), (B, B))

    def test_lowering_inverse_of_worked_example(self):
        t = tab(
            ". . . . . . . . 4 4 5\n"
            ". . . . 1 1 2 . . . 6\n"
            ". . 1 1 2 . . 4 5 6 7\n"
            "1 1 2 3 3 3 4 6 6 . ."
        )
        assert ptab_lowering(ptab_raising(t, 2), 2) == t

    def test_lowering_null_on_anti_partition(self):
        t = validate_ptableau([[B, B], [1, 1]])
        assert ptab_lowering(t, 1) is None

    def test_lowering_chain(self):
        t = validate_ptableau([[1, 1], [B, B]])
        step1 = ptab_lowering(t, 1)
        assert step1.grid == ((B, 1), (1, B))
        step2 = ptab_lowering(step1, 1)
        assert step2.grid == ((B, B), (1, 1))

    def test_inverse_pairs_exhaustive(self):
        for w in all_words(3, 5):
            t = ptableau_from_word(w)
            for i in (1, 2):
                up = ptab_raising(t, i)
                if up is not None:
                    assert ptab_lowering(up, i) == t
                down = ptab_lowering(t, i)
                if down is not None:
                    assert ptab_raising(down, i) == t


class TestCommutation:
    def _check(self, rank, max_len):
        for w in all_words_upto(rank, max_len):
            pw = minimal_parsing(w)
            t = ptableau_from_word(pw)
            for i in range(1, rank):
                for wop, top in (
                    (word_raising, ptab_raising),
                    (word_lowering, ptab_lowering),
                ):
                    wimg = wop(pw, i)
                    timg = top(t, i)
                    if wimg is None:
                        assert timg is None
                    else:
                        assert timg == ptableau_from_word(wimg)

    def test_rank3(self):
        self._check(3, 5)

    def test_rank4(self):
        self._check(4, 4)

    def test_non_minimal_parsings_commute_too(self):
        from ptableaux import all_parsings

        def with_empty_factors(pw):
            """Trailing empty factors leave content_bound above every value
            present; leading and doubled cuts leave gaps below it."""
            k = len(pw.word)
            yield ParsedWord(pw.word, pw.cuts + (k,))
            yield ParsedWord(pw.word, pw.cuts + (k, k))
            yield ParsedWord(pw.word, (0,) + pw.cuts)
            if pw.cuts:
                yield ParsedWord(pw.word, (pw.cuts[0],) + pw.cuts)

        parsings = [pw for w in all_words(3, 4) for pw in all_parsings(w)]
        gapped = [qw for pw in parsings for qw in with_empty_factors(pw)]
        assert any(
            ptableau_from_word(qw).content_bound
            > ptableau_from_word(qw).max_value()
            for qw in gapped
        )
        for inputs, wop, top in (
            (parsings, word_raising, ptab_raising),
            (parsings, word_lowering, ptab_lowering),
            (gapped, word_raising, ptab_raising),
            (gapped, word_lowering, ptab_lowering),
        ):
            for pw in inputs:
                t = ptableau_from_word(pw)
                for i in (1, 2):
                    wimg = wop(pw, i)
                    timg = top(t, i)
                    if wimg is None:
                        assert timg is None
                    else:
                        assert timg == ptableau_from_word(wimg)


class TestStatistics:
    def test_epsilon_worked_example(self):
        t = tab(
            ". . . . . . . . 4 4 5\n"
            ". . . . 1 1 2 . . . 6\n"
            ". . 1 1 2 . . 4 5 6 7\n"
            "1 1 2 3 3 3 4 6 6 . ."
        )
        assert ptab_epsilon(t, 2) == 3

    def test_partition_shaped_epsilon_zero(self):
        t = ptableau_from_word(ParsedWord.from_text("111|22111|2221|33211|332|33"))
        assert all(ptab_epsilon(t, i) == 0 for i in (1, 2))

    def test_statistics_count_operator_applications(self):
        for w in all_words(3, 5):
            t = ptableau_from_word(w)
            for i in (1, 2):
                m = 0
                cur = t
                while (cur := ptab_raising(cur, i)) is not None:
                    m += 1
                assert ptab_epsilon(t, i) == m
                m = 0
                cur = t
                while (cur := ptab_lowering(cur, i)) is not None:
                    m += 1
                assert ptab_phi(t, i) == m

    def test_phi_minus_epsilon_is_weight_difference(self):
        for w in all_words_upto(3, 5):
            t = ptableau_from_word(w)
            wt = t.weight()
            for i in (1, 2):
                assert ptab_phi(t, i) - ptab_epsilon(t, i) == wt[i - 1] - wt[i]

    def test_word_statistics_agree_with_ptableau(self):
        for w in all_words(3, 5):
            t = ptableau_from_word(w)
            for i in (1, 2):
                assert epsilon(w, i) == ptab_epsilon(t, i)
                assert phi(w, i) == ptab_phi(t, i)


class TestRotation:
    def test_rotate_grid_example(self):
        t = tab(
            ". . . . . . . . 4 4 5\n"
            ". . . . . 1 1 2 . 5 6\n"
            ". . . 1 1 . 2 4 5 6 7\n"
            "1 1 2 3 3 3 4 6 6 . 8",
            8,
        )
        expected = tab(
            "1 . 3 3 5 6 6 6 7 8 8\n"
            "2 3 4 5 7 . 8 8 . . .\n"
            "3 4 . 7 8 8 . . . . .\n"
            "4 5 5 . . . . . . . .",
            8,
        )
        assert rotate(t) == expected

    def test_involution(self):
        for w in all_words(3, 4):
            t = ptableau_from_word(w)
            assert rotate(rotate(t)) == t
            assert rotate_word(rotate_word(w)) == w

    def test_rotation_intertwines_operators(self):
        n = 3
        for w in all_words(3, 4):
            pw = minimal_parsing(w)
            t = ptableau_from_word(pw)
            for i in (1, 2):
                lhs = word_lowering(w, i)
                rhs = word_raising(rotate_word(w), n - i)
                if lhs is None:
                    assert rhs is None
                else:
                    assert rotate_word(lhs) == rhs
                tl = ptab_lowering(t, i)
                tr = ptab_raising(rotate(t), n - i)
                if tl is None:
                    assert tr is None
                else:
                    assert rotate(tl) == tr

    def test_rotation_commutes_with_pf(self):
        for w in all_words_upto(3, 4):
            pw = minimal_parsing(w)
            assert ptableau_from_word(rotate_word(pw)) == rotate(
                ptableau_from_word(pw)
            )


class TestHighestLowest:
    def test_triple_equivalence(self):
        for w in all_words_upto(3, 6):
            t = ptableau_from_word(w)
            a = is_partition_shaped(t)
            b = is_yamanouchi(w)
            c = all(word_raising(w, i) is None for i in (1, 2))
            assert a == b == c

    def test_empty_is_both(self):
        t = ptableau_from_word(Word(3, ()))
        assert is_highest_weight(t) and is_lowest_weight(t)

    def test_antidiagonal_neither(self):
        t = validate_ptableau([[B, 1], [1, B]])
        assert not is_highest_weight(t) and not is_lowest_weight(t)

    def test_to_highest_weight_fixed_point(self):
        t = ptableau_from_word(ParsedWord.from_text("111|22111|2221|33211|332|33"))
        top, seq = to_highest_weight(t)
        assert top == t and seq == ()

    def test_to_highest_weight_single_step(self):
        t = validate_ptableau([[B, 1], [1, B]])
        top, seq = to_highest_weight(t)
        assert top.grid == ((1, 1), (B, B)) and seq == (1,)

    def test_intro_component_weight(self):
        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        top, _ = to_highest_weight(t)
        assert top.weight() == (5, 4, 1)
        assert is_partition_shaped(top)

    def test_endpoint_strategy_independent(self):
        import random

        from ptableaux import raising_operator

        rng = random.Random(11)
        for w in all_words(3, 5)[::7]:
            t = ptableau_from_word(w)
            fixed, _ = to_highest_weight(t)
            cur = t
            while True:
                options = [
                    i for i in (1, 2) if raising_operator(cur, i) is not None
                ]
                if not options:
                    break
                cur = raising_operator(cur, rng.choice(options))
            assert cur == fixed

    def test_column_count_preserved(self):
        for w in all_words(3, 5):
            t = ptableau_from_word(w)
            for i in (1, 2):
                for op in (ptab_raising, ptab_lowering):
                    out = op(t, i)
                    if out is not None:
                        assert out.cols == t.cols

    def test_apply_ops_chain_and_null_propagation(self):
        t = ptableau_from_word(ParsedWord.from_text("21"))
        assert apply_ops(t, [("e", 1), ("e", 1)]) is None
        assert apply_ops(t, [("e", 1), ("f", 1)]) == t
