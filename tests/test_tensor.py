"""Tensor products, the word condition, and Littlewood-Richardson counts."""
import random

import pytest

from conftest import partitions, ssyt_count, tab
from ptableaux import (
    ParsedWord,
    Word,
    classical_lr_fillings,
    component,
    highest_weight_ptableau,
    is_highest_weight_tensor,
    is_partition_shaped,
    lr_coefficient,
    lr_table,
    minimal_parsing,
    ptableau_from_word,
    satisfies_word_condition,
    shape,
    tensor,
    tensor_words,
    word_condition_counting,
    words_closure,
    decompose,
)
from ptableaux.errors import PTableauError, RowMismatch, ShapeError

B = None


class TestTensor:
    def test_worked_example(self):
        t = tab(". 1 1 2 . 3\n1 2 3 3 3 .\n2 3 4 . . .", 4)
        u = tab("1 1 1 2 4 4\n2 2 . 3 . .\n3 3 3 . . .", 4)
        prod = tensor(t, u)
        assert prod.to_text() == (
            ". 1 1 2 . 3 5 5 5 6 8 8\n"
            "1 2 3 3 3 6 6 7 . . . .\n"
            "2 3 4 7 7 7 . . . . . ."
        )
        assert prod.content_bound == 8
        assert prod.weight() == tuple(
            a + b for a, b in zip(t.weight(), u.weight())
        )

    def test_unit_laws(self):
        from ptableaux import validate_ptableau

        t = ptableau_from_word(ParsedWord.from_text("21|22|331|331"))
        unit = validate_ptableau([[], [], []])
        assert unit.content_bound == 0
        assert tensor(t, unit) == t
        assert tensor(unit, t) == t
        # an empty ptableau carrying empty factors shifts labels instead
        one_factor = ptableau_from_word(Word(3, ()))
        assert tensor(one_factor, t).content_bound == t.content_bound + 1

    def test_row_mismatch(self):
        with pytest.raises(RowMismatch):
            tensor(
                ptableau_from_word(Word(2, (1,))),
                ptableau_from_word(Word(3, (1,))),
            )

    def test_matches_word_concatenation(self):
        rng = random.Random(3)
        for _ in range(10):
            k1, k2 = rng.randrange(0, 5), rng.randrange(0, 5)
            w1 = minimal_parsing(Word(3, [rng.randrange(1, 4) for _ in range(k1)]))
            w2 = minimal_parsing(Word(3, [rng.randrange(1, 4) for _ in range(k2)]))
            via_words = ptableau_from_word(tensor_words(w1, w2))
            via_grids = tensor(ptableau_from_word(w1), ptableau_from_word(w2))
            assert via_words == via_grids

    def test_tensor_words_concatenates(self):
        a = minimal_parsing(Word.from_text("31132"))
        b = minimal_parsing(Word.from_text("32132"))
        joined = tensor_words(a, b)
        assert joined.to_text() == "311|32|321|32"
        assert joined.word.to_text() == "3113232132"
        assert joined.num_factors == a.num_factors + b.num_factors


class TestHighestWeightTensor:
    def test_two_column_example(self):
        t = ptableau_from_word(ParsedWord.from_text("1"), rows=2)
        u = ptableau_from_word(ParsedWord.from_text("2"), rows=2)
        assert is_highest_weight_tensor(t, u)
        assert tensor(t, u).grid == ((1,), (2,))

    def test_left_factor_must_be_highest_weight(self):
        t = ptableau_from_word(ParsedWord.from_text("21|1"), rows=3)
        assert not is_partition_shaped(t)
        for w in words_closure(3, 3):
            u = ptableau_from_word(w)
            assert not is_highest_weight_tensor(t, u)

    def test_worked_highest_weight_tensor(self):
        mu = highest_weight_ptableau((6, 3, 1, 0))
        t = tab(
            ". . . 1 1 1 1\n. 1 1 2 2 2 .\n1 2 3 3 . . .\n2 3 4 4 . . .", 4
        )
        prod = tensor(mu, t)
        assert is_partition_shaped(prod)
        assert shape(prod) == (10, 8, 5, 4)


class TestHighestWeightPtableau:
    def test_negative_part_is_refused(self):
        for parts in ((2, -1), (-1,), (0, -1)):
            with pytest.raises(ShapeError):
                highest_weight_ptableau(parts)
            with pytest.raises(ShapeError):
                highest_weight_ptableau(parts, rows=3)


class TestWordCondition:
    def test_worked_example_true(self):
        t = tab(
            ". . . 1 1 1 1\n. 1 1 2 2 2 .\n1 2 3 3 . . .\n2 3 4 4 . . .", 4
        )
        assert satisfies_word_condition(t)

    def test_highest_weight_ptableau_construction(self):
        t = highest_weight_ptableau((4, 3, 3, 1))
        assert t.to_text() == "1 1 1 1\n2 2 2 .\n3 3 3 .\n4 . . ."
        assert satisfies_word_condition(t)
        assert is_partition_shaped(t)

    def test_row_one_pair_false(self):
        from ptableaux import validate_ptableau

        t = validate_ptableau([[1, 2]])
        assert not satisfies_word_condition(t)

    def test_closure_under_operators(self):
        t = highest_weight_ptableau((2, 1), rows=3)
        for node in component(t).nodes:
            assert satisfies_word_condition(node)

    def test_word_condition_members_lie_in_canonical_component(self):
        for w in words_closure(3, 4):
            t = ptableau_from_word(w)
            if satisfies_word_condition(t):
                from ptableaux import to_highest_weight

                top, _ = to_highest_weight(t)
                assert top == highest_weight_ptableau(shape(top), rows=3)

    def test_counting_variant_is_strictly_weaker(self):
        # operational implies counting on every small case; the converse
        # fails, e.g. for a lone 2 next to a 1 in row one
        from ptableaux import validate_ptableau

        for w in words_closure(3, 4) + words_closure(3, 3):
            t = ptableau_from_word(w)
            if satisfies_word_condition(t):
                assert word_condition_counting(t)
        counterexample = validate_ptableau([[1, 2]])
        assert word_condition_counting(counterexample)
        assert not satisfies_word_condition(counterexample)


class TestClassicalLR:
    def test_single_filling_when_content_equals_outer(self):
        fillings = classical_lr_fillings((3, 2), (), (3, 2))
        assert len(fillings) == 1
        assert fillings[0].entries == ((1, 1, 1), (2, 2, B))

    def test_small_skew_count(self):
        assert len(classical_lr_fillings((3, 2, 1), (2, 1), (2, 1))) == 2

    def test_worked_filling_present(self):
        fillings = classical_lr_fillings((10, 8, 5, 4), (6, 3, 1, 0), (7, 5, 3, 2))
        rows = (
            (B, B, B, B, B, B, 1, 1, 1, 1),
            (B, B, B, 1, 1, 2, 2, 2, B, B),
            (B, 1, 2, 3, 3, B, B, B, B, B),
            (2, 3, 4, 4, B, B, B, B, B, B),
        )
        assert any(f.entries == rows for f in fillings)

    def test_reading_words_are_yamanouchi(self):
        from ptableaux import is_yamanouchi

        for f in classical_lr_fillings((4, 3, 1), (2, 1), (3, 2)):
            assert is_yamanouchi(Word(5, f.reading_word()))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            classical_lr_fillings((2, 1), (3,), (1,))
        with pytest.raises(ShapeError):
            classical_lr_fillings((3, 1), (1,), (1, 1))


class TestLRCoefficient:
    def test_classic_two(self):
        g_mu = component(highest_weight_ptableau((2, 1), rows=3))
        g_nu = component(highest_weight_ptableau((2, 1), rows=3))
        assert lr_coefficient(g_mu, g_nu, (3, 2, 1)) == 2

    def test_graphs_of_words_are_a_typed_error(self):
        g = component(Word.from_text("12", 2))
        with pytest.raises(PTableauError, match="^lr computations require ptableau graphs$"):
            lr_table(g, g)

    def test_empty_nu(self):
        g_mu = component(highest_weight_ptableau((2, 1), rows=3))
        g_nu = component(ptableau_from_word(Word(3, ())))
        assert lr_coefficient(g_mu, g_nu, (2, 1)) == 1
        assert lr_coefficient(g_mu, g_nu, (1, 1, 1)) == 0

    def test_agrees_with_classical_small(self):
        def classical_count(lam, mu, nu):
            try:
                return len(classical_lr_fillings(lam, mu, nu))
            except ShapeError:
                return 0  # inner shape not contained in outer

        n = 3
        for a in range(0, 4):
            for b in range(0, 4):
                for mu in partitions(a, n):
                    for nu in partitions(b, n):
                        g_mu = component(highest_weight_ptableau(mu, rows=n))
                        g_nu = component(highest_weight_ptableau(nu, rows=n))
                        table = lr_table(g_mu, g_nu)
                        for lam in partitions(a + b, n):
                            expected = classical_count(lam, mu, nu)
                            assert table.get(lam, 0) == expected

    def test_worked_four_row_configuration(self):
        g_mu = component(highest_weight_ptableau((6, 3, 1, 0)))
        g_nu = component(highest_weight_ptableau((7, 5, 3, 2)))
        coeff = lr_coefficient(g_mu, g_nu, (10, 8, 5, 4))
        assert coeff >= 1
        assert coeff == 7  # frozen against the classical enumeration below
        assert coeff == len(
            classical_lr_fillings((10, 8, 5, 4), (6, 3, 1, 0), (7, 5, 3, 2))
        )

    def test_representative_independence(self):
        # two distinct components with highest weight (2,1) inside rank-3
        # words of length 3
        comps = [
            g
            for g in decompose(words_closure(3, 3))
            if tuple(p for p in g.weight_label if p) == (2, 1)
        ]
        assert len(comps) == 2
        reps = [
            component(ptableau_from_word(minimal_parsing(g.highest_weight_node)))
            for g in comps
        ]
        g_mu = component(highest_weight_ptableau((2, 1), rows=3))
        tables = [lr_table(g_mu, rep) for rep in reps]
        assert tables[0] == tables[1]

    def test_node_count_conservation(self):
        n = 3
        for a in range(0, 4):
            for b in range(0, 4 - max(0, a - 3)):
                if a + b > 5:
                    continue
                for mu in partitions(a, n):
                    for nu in partitions(b, n):
                        g_mu = component(highest_weight_ptableau(mu, rows=n))
                        g_nu = component(highest_weight_ptableau(nu, rows=n))
                        total = sum(
                            count * ssyt_count(lam, n)
                            for lam, count in lr_table(g_mu, g_nu).items()
                        )
                        assert total == len(g_mu) * len(g_nu)
