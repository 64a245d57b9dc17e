"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Golden values marked "derived" below replace two display
typos in the source material; the derivations are spelled out in comments
next to the assertions.
"""
import time

from conftest import partitions, ssyt_fillings, ssyt_as_ptableau, tab
from ptableaux import (
    ParsedWord,
    Word,
    biword_from_parsed,
    classical_lr_fillings,
    component,
    decompose,
    dual,
    evacuate,
    evacuation_as_operators,
    highest_weight_ptableau,
    is_bss_pair,
    is_partition_shaped,
    is_yamanouchi,
    isomorphic,
    longest_weakly_decreasing,
    lr_table,
    matrix_from_biword,
    matrix_from_ptableau,
    minimal_parsing,
    processable_corners,
    ptab_epsilon,
    ptab_lowering,
    ptab_phi,
    ptab_raising,
    ptableau_from_word,
    push_down,
    push_states,
    push_up,
    rotate,
    rsk,
    shape,
    tensor,
    to_highest_weight,
    validate_ptableau,
    word_lowering,
    word_raising,
    words_closure,
)
from ptableaux.errors import ShapeError

B = None


def report(num, text):
    print(f"[criterion {num:2d}] PASS - {text}")


def all_words_upto(rank, max_len):
    out = []
    for k in range(1, max_len + 1):
        out.extend(words_closure(rank, k))
    return out


def test_criterion_01_intro_golden_chain():
    start = time.monotonic()
    pw = ParsedWord.from_text("21|22|331|331")

    bw = biword_from_parsed(pw)
    assert bw.top() == (1, 1, 2, 2, 3, 3, 3, 4, 4, 4)
    assert bw.bottom() == (2, 1, 2, 2, 3, 3, 1, 3, 3, 1)

    m = matrix_from_biword(bw)
    assert m.entries == ((1, 1, 0), (0, 2, 0), (1, 0, 2), (1, 0, 2))

    t = ptableau_from_word(pw)
    # The displayed 6-column layout of this tableau is a loose drawing, not
    # the class representative: canonical width equals the longest weakly
    # decreasing subword (5 for this word), so the canonicalized display is
    # the golden.  Both grids carry the same per-row content.
    displayed = validate_ptableau(
        [
            [B, B, 1, B, 3, 4],
            [B, 1, 2, 2, B, B],
            [3, 3, 4, 4, B, B],
        ],
        4,
    )
    assert t == displayed
    assert t.grid == ((B, 1, B, 3, 4), (1, 2, 2, B, B), (3, 3, 4, 4, B))
    assert matrix_from_ptableau(t) == m

    d = dual(t)
    assert d.grid == (
        (B, B, 1, B, 2),
        (B, B, 2, 2, B),
        (B, 1, B, 3, 3),
        (1, 3, 3, B, B),
    )
    assert matrix_from_ptableau(d) == m.transpose()

    pair = rsk(bw)
    # Derived golden: the printed insertion pair cannot arise from any
    # row/column x weak/strict x forward/reversed insertion variant, and a
    # recording tableau that is constant on crystal components must have
    # the component's highest weight as its shape: (5,4,1) here, since
    # raising operators send this word's tableau to one of weight (5,4,1).
    # The frozen convention (column insertion, topmost >= bump, left to
    # right) produces exactly:
    assert pair.insertion == tab("1 1 1 2 2\n2 3 3 3 .\n3 . . . .", 3)
    assert pair.recording == tab(
        "1 1 2 3 4\n2 3 4 4 .\n3 . . . .\n. . . . .", 4
    )
    top, _ = to_highest_weight(t)
    assert pair.shape == shape(top) == (5, 4, 1)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"intro golden chain reproduced ({elapsed:.3f}s)")


def test_criterion_02_operator_commutation():
    start = time.monotonic()
    checked = 0
    for rank, max_len in ((3, 6), (4, 5)):
        words = all_words_upto(rank, max_len)
        if rank == 3:
            assert len(words) == 1092
        for w in words:
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
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, f"pf/operator commutation on {checked} cases ({elapsed:.1f}s)")


def test_criterion_03_highest_weight_triple():
    checked = 0
    for rank, max_len in ((3, 6), (4, 5)):
        for w in all_words_upto(rank, max_len):
            t = ptableau_from_word(w)
            a = is_partition_shaped(t)
            b = is_yamanouchi(w)
            c = all(word_raising(w, i) is None for i in range(1, rank))
            assert a == b == c
            checked += 1
    report(3, f"partition-shaped = Yamanouchi = raising-null on {checked} words")


def test_criterion_04_operator_goldens():
    t = tab(
        ". . . . . . . . 4 4 5\n"
        ". . . . 1 1 2 . . . 6\n"
        ". . 1 1 2 . . 4 5 6 7\n"
        "1 1 2 3 3 3 4 6 6 . ."
    )
    # displayed raising image, canonicalized (the drawing leaves the 7 one
    # column right of its left-justified slot)
    displayed = tab(
        ". . . . . . . . 4 4 5\n"
        ". . . . 1 1 2 . . 6 6\n"
        ". . 1 1 2 . . 4 5 . 7\n"
        "1 1 2 3 3 3 4 6 6 . ."
    )
    assert ptab_raising(t, 2) == displayed
    assert ptab_epsilon(t, 2) == 3

    word = Word.from_text("32233112223")
    chain_words = ["32233112213", "32133112213", "31133112213"]
    chain_tabs = [
        ". . . 2 2 3\n. 1 1 3 3 .\n1 2 2 4 . .",
        ". . 1 2 2 3\n. 1 . 3 3 .\n1 2 2 4 . .",
        ". 1 1 2 2 3\n. . . 3 3 .\n1 2 2 4 . .",
    ]
    t = ptableau_from_word(ParsedWord.from_text("322|3311|222|3"))
    assert t == tab(". . . 2 2 .\n. 1 1 3 3 3\n1 2 2 4 . .", 4)
    cur_w, cur_t = word, t
    for expected_word, expected_tab in zip(chain_words, chain_tabs):
        cur_w = word_raising(cur_w, 1)
        cur_t = ptab_raising(cur_t, 1)
        assert cur_w.to_text() == expected_word
        assert cur_t == tab(expected_tab, 4)
        assert cur_t == ptableau_from_word(minimal_parsing(cur_w))
    report(4, "raising golden, epsilon count, and root-string lift")


def test_criterion_05_component_goldens():
    start = time.monotonic()
    g1 = component(ptableau_from_word(Word.from_text("1112", rank=3)))
    g2 = component(ptableau_from_word(Word.from_text("1211", rank=3)))
    assert len(g1) == 15 and len(g2) == 15
    assert not g1.node_set() & g2.node_set()
    assert isomorphic(g1, g2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(5, f"twin 15-node components, disjoint and isomorphic ({elapsed:.3f}s)")


def _classical_count(lam, mu, nu):
    try:
        return len(classical_lr_fillings(lam, mu, nu))
    except ShapeError:
        return 0


def test_criterion_06_littlewood_richardson():
    start = time.monotonic()
    graphs = {}

    def graph_of(nu, n):
        key = (nu, n)
        if key not in graphs:
            graphs[key] = component(highest_weight_ptableau(nu, rows=n))
        return graphs[key]

    triples = 0
    for n in (2, 3, 4):
        for a in range(0, 9):
            for b in range(0, 9 - a):
                for mu in partitions(a, n):
                    for nu in partitions(b, n):
                        table = lr_table(graph_of(mu, n), graph_of(nu, n))
                        for lam in partitions(a + b, n):
                            assert table.get(lam, 0) == _classical_count(
                                lam, mu, nu
                            )
                            triples += 1

    # representative independence: two distinct components of each highest
    # weight, found inside the word crystal, give the same counts
    indep = 0
    for nu, k in (((2, 1), 3), ((3, 1), 4), ((2, 1, 1), 4), ((2, 2), 4)):
        comps = [
            g
            for g in decompose(words_closure(3, k))
            if tuple(p for p in g.weight_label if p) == nu
        ]
        assert len(comps) >= 2
        reps = [
            component(
                ptableau_from_word(minimal_parsing(g.highest_weight_node))
            )
            for g in comps[:2]
        ]
        for mu in ((1,), (2, 1)):
            t0 = lr_table(graph_of(mu, 3), reps[0])
            t1 = lr_table(graph_of(mu, 3), reps[1])
            assert t0 == t1
            indep += 1

    # node-count conservation
    conserved = 0
    for a in range(0, 7):
        for b in range(0, 7 - a):
            for mu in partitions(a, 3):
                for nu in partitions(b, 3):
                    g_mu, g_nu = graph_of(mu, 3), graph_of(nu, 3)
                    total = sum(
                        count * len(graph_of(lam, 3))
                        for lam, count in lr_table(g_mu, g_nu).items()
                    )
                    assert total == len(g_mu) * len(g_nu)
                    conserved += 1

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        6,
        f"LR crystal = classical on {triples} triples, "
        f"{indep} representative checks, {conserved} conservation checks "
        f"({elapsed:.1f}s)",
    )


def test_criterion_07_evacuation():
    worked = tab("1 1 2 2 3 4\n2 3 3 4 . .\n3 4 5 . . .", 5)
    worked_evac = tab(". . . 1 2 3\n. . 2 2 3 4\n1 3 3 4 4 5", 5)
    assert evacuate(worked) == worked_evac

    cur = worked
    for i in (1, 1, 2, 2, 2, 1):
        cur = ptab_lowering(cur, i)
    assert cur == worked_evac
    assert evacuation_as_operators(worked) == (1, 1, 2, 2, 2, 1)

    # derived golden: the printed rotation output fails column strictness;
    # rotating the evacuation display (reverse both axes, value -> 6-value)
    # gives this grid, which is asserted instead
    assert rotate(worked_evac) == tab("1 2 2 3 3 5\n2 3 4 4 . .\n3 4 5 . . .", 5)

    from ptableaux.evacuation import _run_blank

    def explore(grid, seen):
        if grid in seen:
            return seen[grid]
        corners = processable_corners(grid)
        if not corners:
            results = {grid}
        else:
            results = set()
            for corner in corners:
                after, _ = _run_blank(grid, corner)
                results |= explore(after, seen)
        seen[grid] = results
        return results

    checked = 0
    for total in range(0, 9):
        for lam in partitions(total, 3):
            for filling in ssyt_fillings(lam, 3):
                t = ssyt_as_ptableau(filling, 3, 3)
                target = evacuate(t)
                cur = t
                for i in evacuation_as_operators(t):
                    cur = ptab_lowering(cur, i)
                assert cur == target
                finals = explore(t.grid, {})
                assert len(finals) == 1
                only = validate_ptableau(next(iter(finals)), t.content_bound)
                assert only == target
                checked += 1
    report(7, f"evacuation goldens and order independence on {checked} tableaux")


def test_criterion_08_commutators():
    start = time.monotonic()
    n = 3
    graphs = {}

    def graph_of(nu):
        if nu not in graphs:
            graphs[nu] = component(highest_weight_ptableau(nu, rows=n))
        return graphs[nu]

    cases = 0
    for a in range(0, 7):
        for b in range(0, 7 - a):
            for mu in partitions(a, n):
                for nu in partitions(b, n):
                    g_mu, g_nu = graph_of(mu), graph_of(nu)
                    t_mu_max = g_mu.highest_weight_node
                    t_nu_max = g_nu.highest_weight_node
                    mu_bound = t_mu_max.content_bound
                    nu_bound = t_nu_max.content_bound
                    mu_nodes = g_mu.node_set()
                    for node in g_nu.nodes:
                        prod = tensor(t_mu_max, node)
                        if not is_partition_shaped(prod):
                            continue
                        down = push_down(prod, mu_bound)
                        up = push_up(prod, mu_bound)
                        assert down == up
                        assert is_partition_shaped(down)
                        assert down.weight() == prod.weight()
                        from ptableaux.core import PTableau

                        left_rows = [
                            [v for v in row if v <= nu_bound]
                            for row in down.row_values()
                        ]
                        left = PTableau._from_rows(left_rows, nu_bound)
                        assert left == t_nu_max
                        right_rows = [
                            [v - nu_bound for v in row if v > nu_bound]
                            for row in down.row_values()
                        ]
                        right = PTableau._from_rows(right_rows, mu_bound)
                        assert right in mu_nodes
                        for direction in (True, False):
                            for state in push_states(
                                prod, mu_bound, down=direction
                            ):
                                assert is_bss_pair(state)
                        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(8, f"push-down = push-up with all contracts on {cases} cases ({elapsed:.1f}s)")


def test_criterion_09_statistic_laws():
    checked = 0
    for w in all_words_upto(3, 5):
        t = ptableau_from_word(w)
        wt = t.weight()
        for i in (1, 2):
            eps, ph = ptab_epsilon(t, i), ptab_phi(t, i)
            count = 0
            cur = t
            while (cur := ptab_raising(cur, i)) is not None:
                count += 1
            assert eps == count
            count = 0
            cur = t
            while (cur := ptab_lowering(cur, i)) is not None:
                count += 1
            assert ph == count
            assert ph - eps == wt[i - 1] - wt[i]
            checked += 1
    report(9, f"epsilon/phi laws verified on {checked} cases")


def test_criterion_10_width_law():
    from ptableaux import all_parsings

    checked = 0
    for rank in (2, 3, 4):
        for k in range(1, 6):
            for w in words_closure(rank, k):
                lwd = longest_weakly_decreasing(w)
                pw_min = minimal_parsing(w)
                assert ptableau_from_word(pw_min).cols == lwd
                non_minimal = None
                for pw in all_parsings(w):
                    if pw != pw_min:
                        non_minimal = pw
                        break
                if non_minimal is None:
                    # refine with a trailing empty factor instead
                    non_minimal = ParsedWord(
                        w, pw_min.cuts + (len(w.letters),)
                    )
                assert ptableau_from_word(non_minimal).cols == lwd
                checked += 2
    report(10, f"column count = longest weakly decreasing subword on {checked} cases")
