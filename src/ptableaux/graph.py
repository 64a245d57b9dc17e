"""Connected crystal components, decomposition, isomorphism, export.

There is one closure: the seed is lowered to its lowest weight, then one
breadth-first search by raising operators records each edge as it is found
and meets the highest weight on the way, so a graph is never re-scanned for
its edges or its highest weight.  ``decompose`` runs that closure once per
component of its node set and refuses a node outside the set on sight.

Components with the same highest weight are isomorphic, whatever the model
(word, parsed word or ptableau) and the seed, so the closure transports
them.  The key of a component is its rank and the weight of its lowest
weight.  The first search of a key only marks it, so a one-off component
costs no more than the search; the second also records the key's skeleton
as flat ``array`` index data: the spanning tree as (parent index, i)
pairs in discovery order, each node's f_i targets by index (-1 where f_i is
undefined), and the index of the highest weight.  From then on a component
with that key is replayed: one raising call per tree entry rebuilds its
nodes in the search's own order, and its edges are read off the targets.
Nodes, edges, DOT and JSON are byte-identical to a search's, and so are its
errors and their order.  The process keeps at most ``_CACHE_NODES`` nodes of
skeletons, a mark counting one, and drops the least recently used first; a
component larger than that keeps only its mark.
"""
from __future__ import annotations

import json
from collections import OrderedDict
from threading import Lock

from .core import PTableau, Word, _trimmed, weight
from .errors import NotClosed, NotConnected, RankMismatch, SizeLimitExceeded
from .operators import (
    _rank,
    is_highest_weight,
    raising_operator,
    to_lowest_weight,
)

DEFAULT_MAX_NODES = 10**6
# The most skeleton nodes the process keeps (see the module docstring): at
# rank 7, 16 to 32 bytes a node, so 4 MB at most.
_CACHE_NODES = 1 << 17


def _serialize(node) -> str:
    if isinstance(node, PTableau):
        return node.to_text().replace("\n", "/")
    return node.to_text()


def _order_key(top):
    """The order of components in :func:`decompose`, total on nodes."""
    return (
        _trimmed(weight(top)),
        _serialize(top),
        _rank(top),
        getattr(top, "content_bound", 0),
    )


class CrystalGraph:
    """A connected crystal graph: nodes plus lowering-operator edges.

    Edges are stored as (source, i, target) with target = f_i(source);
    raising edges are the reversed view.  Node order is deterministic
    (sorted by serialization).
    """

    __slots__ = ("nodes", "edges", "highest_weight_node", "weight_label", "rank")

    def __init__(self, nodes, edges, _highest_weight=None):
        nodes = tuple(nodes)
        if not nodes:
            raise NotConnected("empty crystal graph")
        self.nodes = nodes
        self.edges = tuple(edges)
        self.rank = _rank(nodes[0])
        if _highest_weight is None:  # a closure passes the one it found
            hw = [u for u in nodes if is_highest_weight(u)]
            if len(hw) != 1:
                raise NotConnected(
                    f"expected a unique highest weight node, found {len(hw)}"
                )
            _highest_weight = hw[0]
        self.highest_weight_node = _highest_weight
        self.weight_label = weight(self.highest_weight_node)

    def __len__(self):
        return len(self.nodes)

    def node_set(self):
        return frozenset(self.nodes)

    def __repr__(self):
        return (
            f"CrystalGraph(weight={self.weight_label}, nodes={len(self.nodes)})"
        )


class _Skeletons(OrderedDict):
    """Skeletons by key, least recently used first; a key met once holds
    ``()``.  ``nodes`` counts what is stored: a skeleton its nodes, a mark
    one.  Storing drops the oldest entries until ``nodes`` is at most
    ``_CACHE_NODES``, and an entry larger than that is not kept at all.
    Every thread shares the cache, so ``find`` and ``store`` hold a lock."""

    def __init__(self):
        super().__init__()
        self.nodes = 0
        self.lock = Lock()

    @staticmethod
    def size(entry) -> int:
        return len(entry[0]) // 2 + 1 if entry else 1

    def find(self, key):
        with self.lock:
            entry = self.get(key)
            if entry is not None:
                self.move_to_end(key)
            return entry

    def store(self, key, entry) -> None:
        with self.lock:
            if key in self:
                self.nodes -= self.size(self.pop(key))
            if self.size(entry) > _CACHE_NODES:
                return
            self[key] = entry
            self.nodes += self.size(entry)
            while self.nodes > _CACHE_NODES:
                self.nodes -= self.size(self.popitem(last=False)[1])


_skeletons = _Skeletons()


def _admit(u, met: int, max_nodes: int, within) -> None:
    """Refuse ``u``, found after ``met`` other nodes: first if it lies
    outside ``within``, then if it would be one node too many."""
    if within is not None and u not in within:
        raise NotClosed(f"operator image {_serialize(u)} leaves the node set")
    if met >= max_nodes:
        raise SizeLimitExceeded(f"component exceeds {max_nodes} nodes")


def _raise_closure(seed, max_nodes: int, within=None):
    """The edges of ``seed``'s component as ``{u: [(i, f_i(u)), ...]}`` over
    every node, and its highest weight.

    The seed is lowered to its lowest weight, which every node lowers to.
    A key seen twice before is replayed from its skeleton (see the module
    docstring); otherwise a breadth-first search by raising operators finds
    the nodes, a hit e_i(v) = u being the edge u -f_i-> v, and the highest
    weight is the one node on which no e_i applies.  Either way the nodes
    are met in the search's order, and with ``within`` a node outside it
    raises :class:`NotClosed` before it is counted against ``max_nodes``,
    so nothing is built past that set.
    """
    low, _ = to_lowest_weight(seed)
    _admit(low, 0, max_nodes, within)
    rank = _rank(low)
    key = (rank, weight(low))
    entry = _skeletons.find(key)
    if entry:
        return _replay(low, rank, entry, max_nodes, within)
    tree = [] if entry is not None else None  # (parent, i) pairs when recording
    nodes = [low]  # in discovery order, the order the search visits them
    down = {low: []}
    tops = []
    for k, v in enumerate(nodes):
        top = True
        for i in range(1, rank):
            u = raising_operator(v, i)
            if u is None:
                continue
            top = False
            out = down.get(u)
            if out is None:
                _admit(u, len(nodes), max_nodes, within)
                out = down[u] = []
                nodes.append(u)
                if tree is not None:
                    tree.extend((k, i))
            out.append((i, v))
        if top:
            tops.append(v)
    if len(tops) != 1:
        raise NotConnected(
            f"expected a unique highest weight node, found {len(tops)}"
        )
    if tree is None:
        _skeletons.store(key, ())
    elif len(nodes) <= _CACHE_NODES:  # a larger one keeps its mark only
        from array import array  # a process that never records never loads it

        code = "h" if len(nodes) <= 1 << 15 else "i"  # 2 bytes an index if they fit
        index = {u: j for j, u in enumerate(nodes)}
        targets = array(code, [-1]) * (len(nodes) * (rank - 1))
        for u, out in down.items():
            base = index[u] * (rank - 1) - 1
            for i, v in out:
                targets[base + i] = index[v]
        _skeletons.store(key, (array(code, tree), targets, index[tops[0]]))
    return down, tops[0]


def _replay(low, rank: int, skeleton, max_nodes: int, within):
    """:func:`_raise_closure` of the lowest weight ``low`` by its key's
    skeleton: one raising call per node after ``low``."""
    tree, targets, top = skeleton
    nodes = [low]
    for k in range(0, len(tree), 2):
        u = raising_operator(nodes[tree[k]], tree[k + 1])
        _admit(u, len(nodes), max_nodes, within)
        nodes.append(u)
    ops, row = range(1, rank), iter(targets)  # zip takes rank - 1 a node
    down = {u: [(i, nodes[t]) for i, t in zip(ops, row) if t >= 0] for u in nodes}
    return down, nodes[top]


def _build(down, top) -> CrystalGraph:
    """The graph of the edges ``down`` (as found by a closure) whose
    highest weight node is ``top``; nodes in serialized order, edges in
    node order and then by index."""
    ordered = sorted(down, key=_serialize)
    edges = [(u, i, v) for u in ordered for i, v in sorted(down[u])]
    return CrystalGraph(ordered, edges, _highest_weight=top)


def component(seed, max_nodes: int = DEFAULT_MAX_NODES) -> CrystalGraph:
    """The connected component of ``seed``.

    The seed is lowered to its lowest weight, and one breadth-first search
    by raising operators from there finds every node and every edge once
    each; the node on which no e_i applies is the highest weight.  A
    component isomorphic to two met before is replayed from their skeleton
    instead (see the module docstring).  More than ``max_nodes`` nodes raise
    :class:`SizeLimitExceeded`.
    """
    return _build(*_raise_closure(seed, max_nodes))


def decompose(nodes, max_nodes: int = DEFAULT_MAX_NODES):
    """Partition an operator-closed node set into connected components.

    Each node not yet met seeds the closure of :func:`component`, which
    refuses a node outside the set as soon as it meets one
    (:class:`NotClosed`).  A set whose every closure stays inside it is a
    union of components, so no separate closedness check is needed.

    Components come in order of trimmed highest weight, then of the
    highest weight's serialization; ptableaux that serialize alike (they
    differ only in ``content_bound``, or in rank with no rows to show it)
    are ordered by rank, then by ``content_bound``, so the order never
    depends on the iteration order of the set.
    """
    node_set = set(nodes)
    met = set()
    components = []
    for seed in node_set:
        if seed in met:
            continue
        down, top = _raise_closure(seed, max_nodes, within=node_set)
        met.update(down)
        components.append(_build(down, top))
    components.sort(key=lambda g: _order_key(g.highest_weight_node))
    return components


def isomorphic(g1: CrystalGraph, g2: CrystalGraph) -> bool:
    """Connected crystals are isomorphic iff their highest weights agree."""
    if g1.rank != g2.rank:
        raise RankMismatch("graphs have different ranks")
    return _trimmed(g1.weight_label) == _trimmed(g2.weight_label)


def export_dot(graph: CrystalGraph) -> str:
    """Graphviz digraph with edges labeled f<i>."""
    index = {u: f"n{k}" for k, u in enumerate(graph.nodes)}
    lines = ["digraph crystal {"]
    for u in graph.nodes:
        lines.append(f'  {index[u]} [label="{_serialize(u)}"];')
    for u, i, v in graph.edges:
        lines.append(f'  {index[u]} -> {index[v]} [label="f{i}"];')
    lines.append("}")
    return "\n".join(lines)


def export_json(graph: CrystalGraph) -> str:
    index = {u: k for k, u in enumerate(graph.nodes)}
    obj = {
        "rank": graph.rank,
        "weightLabel": list(graph.weight_label),
        "highestWeight": index[graph.highest_weight_node],
        "nodes": [_serialize(u) for u in graph.nodes],
        "edges": [[index[u], i, index[v]] for u, i, v in graph.edges],
    }
    return json.dumps(obj, sort_keys=True)


def _too_many_words(rank: int, length: int, max_nodes: int) -> bool:
    """rank**length > max_nodes, with the exponent clipped where it already
    exceeds the cap, so a huge length is refused without a huge power (a
    negative length is left to ``itertools.product`` to refuse)."""
    return rank ** min(max(length, 0), max_nodes.bit_length() + 1) > max_nodes


def words_closure(rank: int, length: int, max_nodes: int = DEFAULT_MAX_NODES):
    """All of [rank]^(x length) as Word values (closed under the operators).

    Raises :class:`SizeLimitExceeded` before enumerating anything when
    there are more than ``max_nodes`` of them, or when ``length`` is above
    ``max_nodes`` (ranks 0 and 1 have at most one word, however long).
    """
    from itertools import product

    if _too_many_words(rank, length, max_nodes):
        raise SizeLimitExceeded(f"{rank}**{length} words exceed {max_nodes} nodes")
    if length > max_nodes:
        raise SizeLimitExceeded(f"words of {length} letters exceed {max_nodes} nodes")
    return [
        Word(rank, letters)
        for letters in product(range(1, rank + 1), repeat=length)
    ]
