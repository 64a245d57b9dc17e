"""Slides, evacuation, operator factorization, BSS checks, push algorithms."""
import random

import pytest

from conftest import partitions, ssyt_fillings, ssyt_as_ptableau, tab
from ptableaux import (
    Word,
    component,
    evacuate,
    evacuation_as_operators,
    highest_weight_ptableau,
    inward_slide_step,
    is_bss_pair,
    is_bss_perforated,
    is_partition_shaped,
    lusztig_involution,
    processable_corners,
    ptab_lowering,
    ptableau_from_word,
    push_down,
    push_states,
    push_up,
    rotate,
    shape,
    tensor,
    to_lowest_weight,
    validate_ptableau,
)
from ptableaux.errors import (
    NotHighestWeight,
    NotPartitionShaped,
    NotTensorForm,
)

B = None

WORKED = tab("1 1 2 2 3 4\n2 3 3 4 . .\n3 4 5 . . .", 5)
WORKED_EVAC = tab(". . . 1 2 3\n. . 2 2 3 4\n1 3 3 4 4 5", 5)


def all_partition_shaped(max_cells, rows=3, bound=3):
    out = []
    for total in range(0, max_cells + 1):
        for lam in partitions(total, rows):
            for filling in ssyt_fillings(lam, bound):
                out.append(ssyt_as_ptableau(filling, rows, bound))
    return out


class TestSlides:
    def test_worked_slide_chain(self):
        grid = WORKED.grid
        pos = (1, 4)
        expected_chain = [
            ("1 1 2 2 3 4\n2 3 3 . 4 .\n3 4 5 . . .", (1, 3)),
            ("1 1 2 2 3 4\n2 3 . 3 4 .\n3 4 5 . . .", (1, 2)),
            ("1 1 2 2 3 4\n2 . 3 3 4 .\n3 4 5 . . .", (1, 1)),
            ("1 1 2 2 3 4\n. 2 3 3 4 .\n3 4 5 . . .", (1, 0)),
            (". 1 2 2 3 4\n1 2 3 3 4 .\n3 4 5 . . .", (0, 0)),
        ]
        for text, new_pos in expected_chain:
            grid, pos = inward_slide_step(grid, pos)
            assert pos == new_pos
            rendered = "\n".join(
                " ".join("." if v is None else str(v) for v in row)
                for row in grid
            )
            assert rendered == text
        # no content above or left: the blank is fixed
        grid2, pos2 = inward_slide_step(grid, pos)
        assert grid2 == grid and pos2 == pos

    def test_tie_swaps_with_above(self):
        grid = ((1, 1), (1, B))
        out, pos = inward_slide_step(grid, (1, 1))
        assert out == ((1, B), (1, 1)) and pos == (0, 1)


class TestEvacuate:
    def test_worked_example(self):
        assert evacuate(WORKED) == WORKED_EVAC

    def test_weight_reverses(self):
        assert WORKED.weight() == (6, 4, 3)
        assert evacuate(WORKED).weight() == (3, 4, 6)

    def test_full_rectangle_fixed(self):
        t = tab("1 1\n2 2")
        assert evacuate(t) == t

    def test_requires_partition_shape(self):
        with pytest.raises(NotPartitionShaped):
            evacuate(validate_ptableau([[B, 1], [1, B]]))

    def test_equals_operator_product(self):
        ops = (1, 1, 2, 2, 2, 1)
        cur = WORKED
        for i in ops:
            cur = ptab_lowering(cur, i)
        assert cur == WORKED_EVAC

    def test_operator_sequence_golden(self):
        assert evacuation_as_operators(WORKED) == (1, 1, 2, 2, 2, 1)

    def test_factorization_on_all_small(self):
        for t in all_partition_shaped(8):
            target = evacuate(t)
            cur = t
            for i in evacuation_as_operators(t):
                cur = ptab_lowering(cur, i)
                assert cur is not None
            assert cur == target

    def test_evacuation_is_lowest_weight(self):
        for t in all_partition_shaped(6):
            low, _ = to_lowest_weight(t)
            assert evacuate(t) == low

    def test_corner_order_independent(self):
        from reference import run_blank

        def explore(grid, seen):
            if grid in seen:
                return seen[grid]
            corners = processable_corners(grid)
            if not corners:
                results = {grid}
            else:
                results = set()
                for corner in corners:
                    after, _ = run_blank(grid, corner)
                    results |= explore(after, seen)
            seen[grid] = results
            return results

        for t in all_partition_shaped(8):
            finals = explore(t.grid, {})
            assert len(finals) == 1

    def test_blank_rows_are_shifted_through(self):
        six_rows = validate_ptableau(
            [
                [1, 1, 2, 2, 3, 4],
                [2, 3, 3, 4, B, B],
                [3, 4, 5, B, B, B],
                [B] * 6,
                [B] * 6,
                [B] * 6,
            ],
            5,
        )
        out = evacuate(six_rows)
        assert out.weight() == (0, 0, 0, 3, 4, 6)
        expected = validate_ptableau(
            [
                [B] * 6,
                [B] * 6,
                [B] * 6,
                [B, B, B, 1, 2, 3],
                [B, B, 2, 2, 3, 4],
                [1, 3, 3, 4, 4, 5],
            ],
            5,
        )
        assert out == expected

    def test_path_dominance(self):
        # evacuating a corner weakly below and strictly left of another
        # keeps the second path weakly right of the first in every shared
        # row, and the vertical climbs never meet: strict separation at
        # every same-row position where both paths step upward (the paths
        # may touch only along final horizontal runs)
        from reference import run_blank

        def vertical_origins(path):
            return {
                p1
                for p1, p2 in zip(path, path[1:])
                if p2[0] == p1[0] - 1
            }

        rng = random.Random(23)
        cases = [t for t in all_partition_shaped(12, rows=3, bound=3)
                 if len(processable_corners(t.grid)) >= 2]
        rng.shuffle(cases)
        for t in cases[:60]:
            corners = processable_corners(t.grid)
            for a in range(len(corners)):
                for b in range(len(corners)):
                    (r1, c1), (r2, c2) = corners[a], corners[b]
                    if not (r1 >= r2 and c1 < c2):
                        continue
                    grid, path1 = run_blank(t.grid, (r1, c1))
                    _, path2 = run_blank(grid, (r2, c2))
                    v1, v2 = vertical_origins(path1), vertical_origins(path2)
                    for pr1, pc1 in path1:
                        for pr2, pc2 in path2:
                            if pr1 != pr2:
                                continue
                            assert pc1 <= pc2
                            if (pr1, pc1) in v1 and (pr2, pc2) in v2:
                                assert pc1 < pc2


class TestLusztig:
    def test_worked_example(self):
        # rotation of the worked evacuation output with bound 5
        expected = tab("1 2 2 3 3 5\n2 3 4 4 . .\n3 4 5 . . .", 5)
        assert lusztig_involution(WORKED) == expected
        assert rotate(WORKED_EVAC) == expected

    def test_single_box(self):
        t = ptableau_from_word(Word(1, (1,)))
        assert lusztig_involution(t) == t

    def test_full_column(self):
        t = validate_ptableau([[1], [2], [3]], 3)
        assert lusztig_involution(t) == t

    def test_requires_partition_shape(self):
        with pytest.raises(NotPartitionShaped):
            lusztig_involution(validate_ptableau([[B, 1], [1, B]]))

    def test_same_shape(self):
        for t in all_partition_shaped(6):
            if t.max_value() < t.content_bound:
                continue
            assert shape(lusztig_involution(t)) == shape(t)


class TestBSS:
    def test_broken_strips_still_bss(self):
        grid = [
            [B, B, 1, 1, B, 2],
            [2, B, 3, B, 4, B],
            [B, 2, B, 3, B, B],
            [B, 3, B, 4, B, B],
        ]
        assert is_bss_perforated(grid)
        from ptableaux.errors import PTableauError

        with pytest.raises(PTableauError):
            validate_ptableau(grid)

    def test_every_ptableau_is_bss(self):
        from conftest import all_words

        for w in all_words(3, 5):
            assert is_bss_perforated(ptableau_from_word(w).grid)

    def test_two_class_display(self):
        b, p = 1, 0
        grid = [
            [(b, 1), (b, 1), (p, 1), (p, 1), (b, 2), (p, 2)],
            [(p, 2), (b, 2), (p, 3), (b, 2), (p, 4), (b, 2)],
            [(b, 2), (p, 2), (b, 3), (p, 3), (b, 3), B],
            [(b, 3), (p, 3), (b, 4), (p, 4), B, B],
        ]
        assert is_bss_pair(grid)

    def test_pair_fails_when_one_class_breaks(self):
        grid = [[(0, 2), (1, 1)], [(0, 1), (1, 2)]]
        assert not is_bss_pair(grid)


class TestPush:
    def test_single_column_exchange(self):
        mu = highest_weight_ptableau((1,), rows=2)
        nu_node = validate_ptableau([[B], [1]], 1)
        product = tensor(mu, nu_node)
        assert product.grid == ((1,), (2,))
        down = push_down(product, 1)
        up = push_up(product, 1)
        assert down == up
        assert down.grid == ((1,), (2,))
        assert down.content_bound == 2

    def test_empty_left_factor_is_identity(self):
        t = highest_weight_ptableau((2, 1), rows=3)
        product = tensor(highest_weight_ptableau((), rows=3), t)
        assert push_down(product, 0) == product
        assert push_up(product, 0) == product

    def test_worked_lr_configuration(self):
        mu = highest_weight_ptableau((6, 3, 1, 0))
        t = tab(
            ". . . 1 1 1 1\n. 1 1 2 2 2 .\n1 2 3 3 . . .\n2 3 4 4 . . .", 4
        )
        product = tensor(mu, t)
        down = push_down(product, mu.content_bound)
        up = push_up(product, mu.content_bound)
        assert down == up
        assert is_partition_shaped(down)
        assert shape(down) == (10, 8, 5, 4)
        assert down.weight() == product.weight()

    def test_rejects_non_highest_weight(self):
        t = validate_ptableau([[B, 1], [1, B]])
        with pytest.raises(NotHighestWeight):
            push_down(t, 0)

    def test_rejects_bad_split(self):
        product = tensor(
            highest_weight_ptableau((1,), rows=2),
            validate_ptableau([[B], [1]], 1),
        )
        with pytest.raises(NotTensorForm):
            push_down(product, 5)

    def _sweep(self, max_total, n):
        cases = []
        for a in range(0, max_total + 1):
            for b in range(0, max_total + 1 - a):
                for mu in partitions(a, n):
                    for nu in partitions(b, n):
                        cases.append((mu, nu))
        return cases

    def test_small_sweep_contracts(self):
        n = 3
        for mu, nu in self._sweep(4, n):
            g_mu = component(highest_weight_ptableau(mu, rows=n))
            g_nu = component(highest_weight_ptableau(nu, rows=n))
            t_mu_max = g_mu.highest_weight_node
            t_nu_max = g_nu.highest_weight_node
            mu_bound = t_mu_max.content_bound
            nu_bound = t_nu_max.content_bound
            for node in g_nu.nodes:
                product = tensor(t_mu_max, node)
                if not is_partition_shaped(product):
                    continue
                down = push_down(product, mu_bound)
                up = push_up(product, mu_bound)
                assert down == up
                assert is_partition_shaped(down)
                assert down.weight() == product.weight()
                # left factor is the highest weight of the nu component
                left_rows = [
                    [v for v in row if v <= nu_bound]
                    for row in down.row_values()
                ]
                from ptableaux.core import PTableau

                left = PTableau._from_rows(left_rows, nu_bound)
                assert left == t_nu_max
                # right factor is a node of the mu component
                right_rows = [
                    [v - nu_bound for v in row if v > nu_bound]
                    for row in down.row_values()
                ]
                right = PTableau._from_rows(right_rows, mu_bound)
                assert right in g_mu.node_set()

    def test_non_canonical_left_component(self):
        # the left factor need not come from the canonical component: seed
        # one whose highest weight node is not the row-constant tableau
        from ptableaux import ParsedWord

        seed = ptableau_from_word(ParsedWord.from_text("1|21", rank=3))
        g_mu = component(seed)
        t_mu_max = g_mu.highest_weight_node
        assert t_mu_max == seed and t_mu_max.grid[0] == (1, 2)
        g_nu = component(highest_weight_ptableau((1, 1), rows=3))
        t_nu_max = g_nu.highest_weight_node
        for node in g_nu.nodes:
            product = tensor(t_mu_max, node)
            if not is_partition_shaped(product):
                continue
            down = push_down(product, t_mu_max.content_bound)
            assert down == push_up(product, t_mu_max.content_bound)
            left_rows = [
                [v for v in row if v <= t_nu_max.content_bound]
                for row in down.row_values()
            ]
            from ptableaux.core import PTableau

            left = PTableau._from_rows(left_rows, t_nu_max.content_bound)
            assert left == t_nu_max
            right_rows = [
                [v - t_nu_max.content_bound for v in row if v > t_nu_max.content_bound]
                for row in down.row_values()
            ]
            right = PTableau._from_rows(right_rows, t_mu_max.content_bound)
            assert right in g_mu.node_set()

    def test_intermediate_states_are_bss_pairs(self):
        n = 3
        mu, nu = (2, 1), (2, 1)
        g_mu = component(highest_weight_ptableau(mu, rows=n))
        g_nu = component(highest_weight_ptableau(nu, rows=n))
        t_mu_max = g_mu.highest_weight_node
        found = 0
        for node in g_nu.nodes:
            product = tensor(t_mu_max, node)
            if not is_partition_shaped(product):
                continue
            found += 1
            for down in (True, False):
                for state in push_states(product, 2, down=down):
                    assert is_bss_pair(state)
        assert found > 0
