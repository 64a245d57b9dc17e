"""Crystal components, decomposition, isomorphism, exports."""
import gc
import json
import sys
import threading
import tracemalloc
from collections import deque
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    partitions,
    record_skeleton,
    skeleton_cache,
    skeleton_key,
    ssyt_count,
    syt_count,
)
from ptableaux import (
    ParsedWord,
    Word,
    component,
    decompose,
    export_dot,
    export_json,
    highest_weight_ptableau,
    is_highest_weight,
    isomorphic,
    lowering_operator,
    minimal_parsing,
    ptableau_from_word,
    raising_operator,
    rsk,
    biword_from_parsed,
    weight,
    words_closure,
)
from ptableaux import graph
from ptableaux.errors import NotClosed, NotConnected, SizeLimitExceeded


@contextmanager
def closures(path, *seeds):
    """Run the block's closures "cold", on a cache that keeps nothing, so
    each one searches, or "warm", with each seed's skeleton recorded first,
    so each component isomorphic to a seed's is replayed."""
    with skeleton_cache(0 if path == "cold" else None) as cache:
        for seed in seeds if path == "warm" else ():
            assert cache[record_skeleton(seed)]
        yield


def views(g):
    return export_dot(g), export_json(g), g.nodes, g.edges, g.highest_weight_node


class TestComponent:
    def test_fifteen_node_component(self):
        g = component(ptableau_from_word(Word.from_text("1112", rank=3)))
        assert len(g) == 15
        assert g.weight_label == (3, 1, 0)
        assert len(g.edges) == 18

    def test_single_box_standard_chain(self):
        g = component(ptableau_from_word(Word(3, (1,))))
        assert len(g) == 3
        assert len(g.edges) == 2

    def test_twin_component_disjoint_but_isomorphic(self):
        g1 = component(ptableau_from_word(Word.from_text("1112", rank=3)))
        g2 = component(ptableau_from_word(Word.from_text("1211", rank=3)))
        assert len(g2) == 15
        assert not g1.node_set() & g2.node_set()
        assert isomorphic(g1, g2)

    def test_component_over_words_matches_ptableaux(self):
        seed = Word.from_text("1211", rank=3)
        gw = component(seed)
        gt = component(ptableau_from_word(seed))
        assert len(gw) == len(gt)
        mapped = {ptableau_from_word(minimal_parsing(w)) for w in gw.nodes}
        assert mapped == gt.node_set()

    def test_size_limit(self):
        self._size_limit("cold")

    def test_size_limit_replayed(self):
        self._size_limit("warm")

    @staticmethod
    def _size_limit(path):
        seed = ptableau_from_word(Word.from_text("1112", rank=3))
        with closures(path, seed):
            with pytest.raises(SizeLimitExceeded, match="^component exceeds 5 nodes$"):
                component(seed, max_nodes=5)

    @pytest.mark.parametrize("path", ["cold", "warm"])
    def test_max_nodes_counts_every_node(self, path):
        # a component of N nodes is refused iff N > max_nodes, one node too
        for word in (Word.from_text("12", 2), Word(3, ()), Word.from_text("1112", 3)):
            for seed in (word, ptableau_from_word(word)):
                g = component(seed)
                for cap in range(-1, len(g) + 2):
                    with closures(path, seed):
                        if len(g) <= cap:
                            assert views(component(seed, max_nodes=cap)) == views(g)
                            assert views(decompose(g.nodes, max_nodes=cap)[0]) == views(g)
                            continue
                        message = f"^component exceeds {cap} nodes$"
                        with pytest.raises(SizeLimitExceeded, match=message):
                            component(seed, max_nodes=cap)
                        with pytest.raises(SizeLimitExceeded, match=message):
                            decompose(g.nodes, max_nodes=cap)

    def test_component_sizes_match_ssyt_counts(self):
        for rank in (2, 3, 4):
            for total in range(1, 7):
                for nu in partitions(total, rank):
                    seed = ptableau_from_word(
                        ParsedWord.from_text(
                            "|".join(str(i + 1) * p for i, p in enumerate(nu)),
                            rank=rank,
                        )
                    )
                    assert len(component(seed)) == ssyt_count(nu, rank)

    def test_edge_consistency(self):
        from ptableaux import lowering_operator, raising_operator

        g = component(ptableau_from_word(Word.from_text("1112", rank=3)))
        for u, i, v in g.edges:
            assert lowering_operator(u, i) == v
            assert raising_operator(v, i) == u


def _key(node):
    return node.to_text().replace("\n", "/")


def _parts(g):
    return g.nodes, g.edges, g.highest_weight_node


def reference_closure(seed):
    """Nodes, edges and highest weight of ``seed``'s component, found by a
    breadth-first search under every e_i and f_i."""
    rank = seed.rows if hasattr(seed, "rows") else seed.rank
    seen = {seed}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for i in range(1, rank):
            for v in (raising_operator(u, i), lowering_operator(u, i)):
                if v is not None and v not in seen:
                    seen.add(v)
                    queue.append(v)
    nodes = tuple(sorted(seen, key=_key))
    edges = tuple(
        (u, i, lowering_operator(u, i))
        for u in nodes
        for i in range(1, rank)
        if lowering_operator(u, i) is not None
    )
    (top,) = [u for u in nodes if is_highest_weight(u)]
    return nodes, edges, top


@st.composite
def seeds(draw):
    """A random word, its ptableau, or the ptableau of a parsing with extra
    (possibly empty) factors."""
    rank = draw(st.integers(2, 5))
    letters = draw(st.lists(st.integers(1, rank), max_size=6))
    word = Word(rank, letters)
    kind = draw(st.sampled_from(["word", "ptableau", "cuts"]))
    if kind == "word":
        return word
    if kind == "ptableau":
        return ptableau_from_word(minimal_parsing(word))
    extra = draw(st.lists(st.integers(0, len(letters)), min_size=1, max_size=3))
    cuts = sorted(minimal_parsing(word).cuts + tuple(extra))
    return ptableau_from_word(ParsedWord(word, cuts))


class TestClosureProperties:
    @settings(max_examples=60, deadline=None)
    @given(seeds())
    def test_component_matches_reference_closure(self, seed):
        assert _parts(component(seed)) == reference_closure(seed)

    @pytest.mark.parametrize("n,k", [(2, 5), (3, 3), (3, 4), (4, 2), (4, 3)])
    def test_decompose_is_component_of_each_highest_weight(self, n, k):
        def trimmed(w):
            return tuple(p for p in w if p)

        tops = sorted(
            (w for w in words_closure(n, k) if is_highest_weight(w)),
            key=lambda w: (trimmed(weight(w)), _key(w)),
        )
        comps = decompose(words_closure(n, k))
        assert [_parts(g) for g in comps] == [_parts(component(t)) for t in tops]


@st.composite
def seed_sets(draw):
    """One to three random seeds of one rank (2-4): all words, all their
    ptableaux, or all ptableaux of parsings with extra factors."""
    rank = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["word", "ptableau", "cuts"]))
    out = []
    for letters in draw(
        st.lists(st.lists(st.integers(1, rank), max_size=5), min_size=1, max_size=3)
    ):
        word = Word(rank, letters)
        if kind == "word":
            out.append(word)
            continue
        cuts = minimal_parsing(word).cuts
        if kind == "cuts":
            extra = draw(st.lists(st.integers(0, len(letters)), min_size=1, max_size=2))
            cuts = tuple(sorted(cuts + tuple(extra)))
        out.append(ptableau_from_word(ParsedWord(word, cuts)))
    return out


class TestDecomposeProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed_sets())
    def test_decompose_of_union_is_component_of_each_highest_weight(self, seeds):
        graphs = {}
        for seed in seeds:
            g = component(seed)
            graphs[g.highest_weight_node] = g
        expected = sorted(
            graphs.values(),
            key=lambda g: (
                tuple(p for p in g.weight_label if p),
                _key(g.highest_weight_node),
                # ptableaux that print alike differ in content_bound
                getattr(g.highest_weight_node, "content_bound", 0),
            ),
        )
        comps = decompose(u for g in graphs.values() for u in g.nodes)
        assert [_parts(g) for g in comps] == [_parts(g) for g in expected]
        assert [export_dot(g) for g in comps] == [export_dot(g) for g in expected]
        assert [export_json(g) for g in comps] == [
            export_json(g) for g in expected
        ]


class TestDecompose:
    def test_rank2_length2(self):
        comps = decompose(words_closure(2, 2))
        sizes = sorted(len(g) for g in comps)
        labels = sorted(tuple(g.weight_label) for g in comps)
        assert sizes == [1, 3]
        assert labels == [(1, 1), (2, 0)]

    def test_ptableaux_printed_alike_order_by_content_bound(self):
        empty = Word(2, ())
        tabs = [
            ptableau_from_word(ParsedWord(empty, cuts))
            for cuts in ((0, 0, 0), (0,), (0, 0))
        ]
        assert len({t.to_text() for t in tabs}) == 1
        for order in (tabs, tabs[::-1]):
            comps = decompose(order)
            assert [g.highest_weight_node.content_bound for g in comps] == [2, 3, 4]

    def test_single_component_set(self):
        g = component(Word.from_text("1112", rank=3))
        comps = decompose(g.nodes)
        assert len(comps) == 1 and comps[0].node_set() == g.node_set()

    def test_rank3_length3(self):
        comps = decompose(words_closure(3, 3))
        weights = sorted(
            tuple(p for p in g.weight_label if p) for g in comps
        )
        assert weights == [(1, 1, 1), (2, 1), (2, 1), (3,)]
        assert sum(len(g) for g in comps) == 27

    def test_multiplicities_match_standard_tableaux_counts(self):
        for n, k in ((2, 4), (3, 4)):
            comps = decompose(words_closure(n, k))
            for nu in partitions(k, n):
                found = sum(
                    1
                    for g in comps
                    if tuple(p for p in g.weight_label if p) == nu
                )
                assert found == syt_count(nu)
            assert sum(len(g) for g in comps) == n**k

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            decompose([Word.from_text("11", rank=2)])

    @pytest.mark.parametrize("model", ["word", "ptableau"])
    def test_each_one_node_deletion_is_not_closed(self, model):
        self._each_one_node_deletion_is_not_closed(model, "cold")

    @pytest.mark.parametrize("model", ["word", "ptableau"])
    def test_each_one_node_deletion_is_not_closed_replayed(self, model):
        self._each_one_node_deletion_is_not_closed(model, "warm")

    @staticmethod
    def _each_one_node_deletion_is_not_closed(model, path):
        nodes = words_closure(3, 3)
        if model == "ptableau":
            nodes = [ptableau_from_word(w) for w in nodes]
        comps = decompose(nodes)
        singles = {g.highest_weight_node for g in comps if len(g) == 1}
        assert len(singles) == 1  # the component of 321
        with closures(path, *(g.highest_weight_node for g in comps)):
            for k, gone in enumerate(nodes):
                rest = nodes[:k] + nodes[k + 1:]
                if gone in singles:
                    assert len(decompose(rest)) == 3
                    continue
                with pytest.raises(NotClosed) as err:
                    decompose(rest)
                # the deleted node is the only one outside the set
                assert str(err.value) == f"operator image {_key(gone)} leaves the node set"

    @pytest.mark.parametrize("model", ["word", "ptableau"])
    def test_one_node_of_large_component_is_not_closed_before_size_cap(self, model):
        self._one_node_of_large_component_is_not_closed_before_size_cap(model, "cold")

    @pytest.mark.parametrize("model", ["word", "ptableau"])
    def test_one_node_of_large_component_is_not_closed_before_size_cap_replayed(
        self, model
    ):
        self._one_node_of_large_component_is_not_closed_before_size_cap(model, "warm")

    @staticmethod
    def _one_node_of_large_component_is_not_closed_before_size_cap(model, path):
        seed = Word.from_text("11223", rank=4)
        if model == "ptableau":
            seed = ptableau_from_word(seed)
        g = component(seed)
        assert len(g) > 2
        with closures(path, seed):
            for node in g.nodes:
                with pytest.raises(NotClosed, match="^operator image .* leaves the node set$"):
                    decompose([node], max_nodes=2)

    def test_words_closure_cap_applies_before_enumeration(self):
        # 2**(10**18) words: refused at once, without computing the power
        with pytest.raises(SizeLimitExceeded):
            words_closure(2, 10**18)
        with pytest.raises(SizeLimitExceeded):
            words_closure(3, 4, max_nodes=80)
        assert len(words_closure(3, 4, max_nodes=81)) == 81
        # ranks 0 and 1 have at most one word, however long: its letters
        # count against the cap too, before anything is built
        with pytest.raises(SizeLimitExceeded):
            words_closure(1, 2 * 10**6, max_nodes=10**6)
        for rank in (0, 1):
            with pytest.raises(SizeLimitExceeded):
                words_closure(rank, 11, max_nodes=10)
        assert words_closure(1, 10, max_nodes=10) == [Word(1, (1,) * 10)]
        assert words_closure(0, 10, max_nodes=10) == []

    def test_component_count_agrees_with_distinct_recordings(self):
        # two words lie in the same component iff their minimal-parsing
        # recording tableaux coincide
        for n, k in ((2, 4), (3, 4)):
            words = words_closure(n, k)
            comps = decompose(words)
            by_q = {}
            for w in words:
                q = rsk(biword_from_parsed(minimal_parsing(w))).recording
                by_q.setdefault(q, set()).add(w)
            assert len(by_q) == len(comps)
            assert {frozenset(v) for v in by_q.values()} == {
                frozenset(g.node_set()) for g in comps
            }


class TestTransport:
    @pytest.mark.parametrize("n,k", [(2, 12), (3, 7), (4, 5), (5, 4)])
    def test_decompose_replayed_equals_searched(self, n, k):
        words = words_closure(n, k)
        with skeleton_cache(0):
            cold = [views(g) for g in decompose(words)]
        with skeleton_cache() as cache:
            # the first pass marks each shape and records those met twice;
            # the second records the rest, so the third replays them all
            decompose(words)
            decompose(words)
            assert len(cache) == len({g.weight_label for g in decompose(words)})
            assert all(cache.values())
            assert [views(g) for g in decompose(words)] == cold

    def test_skeletons_are_recorded_on_the_second_touch(self):
        seed = Word.from_text("1112", 3)
        key = skeleton_key(seed)
        with skeleton_cache() as cache:
            g = component(seed)  # 15 nodes: one (parent, i) pair and 2 targets each
            assert cache[key] == () and cache.nodes == 1
            assert views(component(seed)) == views(g)
            tree, targets, top = cache[key]
            assert (len(tree), len(targets), cache.nodes) == (2 * 14, 2 * 15, 15)
            assert sum(t >= 0 for t in targets) == len(g.edges)
            assert views(component(seed)) == views(g)

    def test_cache_keeps_at_most_its_bound(self, monkeypatch):
        monkeypatch.setattr(graph, "_CACHE_NODES", 40)
        cache = graph._Skeletons()
        monkeypatch.setattr(graph, "_skeletons", cache)
        # 3, 6, 3, 10, 8, 3 again, 15 and 1 nodes: 30 are kept before the
        # 15, which pushes out the least recently used, "11" but not "1"
        texts = ("1", "11", "12", "111", "121", "1", "1112", "123")
        sizes = {}
        for text in texts:
            seed = Word.from_text(text, 3)
            for _ in range(3):
                sizes[skeleton_key(seed)] = len(component(seed))
                assert cache.nodes == sum(map(cache.size, cache.values())) <= 40
        assert cache.nodes == 40 and all(cache.values())
        assert skeleton_key(Word.from_text("11", 3)) not in cache
        assert skeleton_key(Word.from_text("1", 3)) in cache
        assert all(cache.size(entry) == sizes[key] for key, entry in cache.items())
        assert sorted(sizes.values()) == [1, 3, 3, 6, 8, 10, 15]
        big = Word.from_text("1112", 4)
        for _ in range(3):
            assert len(component(big)) > 40
            assert not cache.get(skeleton_key(big))
            assert cache.nodes <= 40


    def test_threads_share_the_cache(self, monkeypatch):
        # with components of 1 to 3 nodes and a bound of 4, each call finds,
        # stores or drops an entry: unlocked, threads lose counts and pop a
        # key another thread dropped (KeyError) within a few hundred calls
        monkeypatch.setattr(graph, "_CACHE_NODES", 4)
        cache = graph._Skeletons()
        monkeypatch.setattr(graph, "_skeletons", cache)
        seeds = [Word.from_text(t, 2) for t in ("", "1", "12", "11", "2")]
        seeds += [Word.from_text(t, 3) for t in ("123", "1")]
        expected = [views(component(seed)) for seed in seeds]
        failures = []

        def work(offset):
            try:
                for k in range(1000):
                    j = (k + offset) % len(seeds)
                    assert views(component(seeds[j])) == expected[j]
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert cache.nodes == sum(map(cache.size, cache.values())) <= 4


class TestIsomorphic:
    def test_self(self):
        g = component(Word.from_text("1112", rank=3))
        assert isomorphic(g, g)

    def test_different_weights(self):
        comps = decompose(words_closure(2, 2))
        assert not isomorphic(comps[0], comps[1])

    def test_padded_weights(self):
        g2 = component(Word(2, (1, 1)))
        g3 = component(Word(3, (1, 1)))
        from ptableaux.errors import RankMismatch

        with pytest.raises(RankMismatch):
            isomorphic(g2, g3)


class TestExports:
    def test_dot_standard_chain(self):
        g = component(ptableau_from_word(Word(3, (1,))))
        dot = export_dot(g)
        assert dot.count("->") == 2
        assert 'label="f1"' in dot and 'label="f2"' in dot

    def test_json_fields_and_determinism(self):
        g = component(ptableau_from_word(Word.from_text("1112", rank=3)))
        payload = export_json(g)
        again = export_json(component(ptableau_from_word(Word.from_text("1112", rank=3))))
        assert payload == again
        obj = json.loads(payload)
        assert len(obj["nodes"]) == 15 and len(obj["edges"]) == 18
        assert obj["weightLabel"] == [3, 1, 0]

    def test_dot_deterministic(self):
        from ptableaux import word_lowering

        seed = Word.from_text("1211", rank=3)
        g1 = component(seed)
        g2 = component(word_lowering(word_lowering(seed, 1), 2))
        assert g1.node_set() == g2.node_set()
        assert export_dot(g1) == export_dot(g2)


class TestMemory:
    def test_a_node_holds_its_counts_and_text_only(self):
        # the packing a node's text is rendered from is let go: a node of
        # this 1024-node component holds its count matrix and its text
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = component(highest_weight_ptableau((4, 3, 2, 1), rows=5))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(g.nodes) <= 1000
