"""Laws checked on generated ptableaux.

By the word-to-ptableau bijection every per-row content is the content of
exactly one ptableau, for any ``content_bound`` at or above its largest
value, so arbitrary contents generate arbitrary ptableaux.
"""
from hypothesis import given, settings, strategies as st

from ptableaux import (
    ptab_epsilon,
    ptab_lowering,
    ptab_phi,
    ptab_raising,
    restrict,
)
from ptableaux.core import PTableau, _pack_rows
from reference import (
    grid_epsilon,
    grid_lowering,
    grid_phi,
    grid_raising,
    search_pack_rows,
)


@st.composite
def contents(draw, min_rows=0, max_rows=7, max_value=9):
    """Per-row contents (values with gaps, rows unsorted) and a bound."""
    n = draw(st.integers(min_rows, max_rows))
    values = st.integers(1, max_value)
    rows = draw(st.lists(st.lists(values, max_size=5), min_size=n, max_size=n))
    top = max((v for row in rows for v in row), default=0)
    return rows, top + draw(st.integers(0, 2))


def ptableaux(min_rows=2):
    return contents(min_rows=min_rows).map(lambda c: PTableau._from_rows(*c))


class TestPacking:
    @settings(max_examples=400, deadline=None)
    @given(contents())
    def test_width_law_matches_search(self, content):
        rows, _ = content
        assert _pack_rows(rows, len(rows)) == search_pack_rows(rows, len(rows))


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
