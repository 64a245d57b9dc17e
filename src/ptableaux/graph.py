"""Connected crystal components, decomposition, isomorphism, export.

Closures are single pass: every operator is applied once per node, each
edge is recorded as it is found and the highest weight is met on the way,
so a graph is never re-scanned for its edges or its highest weight.
"""
from __future__ import annotations

import json
from collections import deque

from .core import PTableau, Word, _trimmed, weight
from .errors import NotClosed, NotConnected, RankMismatch, SizeLimitExceeded
from .operators import (
    _rank,
    is_highest_weight,
    lowering_operator,
    raising_operator,
    to_lowest_weight,
)

DEFAULT_MAX_NODES = 10**6


def _serialize(node) -> str:
    if isinstance(node, PTableau):
        return node.to_text().replace("\n", "/")
    return node.to_text()


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


def _raise_closure(seed, max_nodes: int):
    """Breadth-first search by raising operators from the lowest weight,
    which reaches every node because every node lowers to it.

    A hit e_i(v) = u is the edge u -f_i-> v.  Returns the edges as
    ``{u: [(i, f_i(u)), ...]}`` over every node, and the nodes on which
    no e_i applies.
    """
    low, _ = to_lowest_weight(seed)
    rank = _rank(low)
    down = {low: []}
    tops = []
    queue = deque([low])
    while queue:
        v = queue.popleft()
        top = True
        for i in range(1, rank):
            u = raising_operator(v, i)
            if u is None:
                continue
            top = False
            out = down.get(u)
            if out is None:
                if len(down) >= max_nodes:
                    raise SizeLimitExceeded(f"component exceeds {max_nodes} nodes")
                out = down[u] = []
                queue.append(u)
            out.append((i, v))
        if top:
            tops.append(v)
    return down, tops


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
    each; the node on which no e_i applies is the highest weight.
    """
    down, tops = _raise_closure(seed, max_nodes)
    if len(tops) != 1:
        raise NotConnected(
            f"expected a unique highest weight node, found {len(tops)}"
        )
    return _build(down, tops[0])


def decompose(nodes, max_nodes: int = DEFAULT_MAX_NODES):
    """Partition an operator-closed node set into connected components.

    One pass applies every e_i and f_i to every node: it checks that the
    set is closed, records the f-edges and finds the highest weights.  Each
    component is then a breadth-first search over the recorded edges from
    its highest weight, with no further operator calls.
    """
    node_set = set(nodes)
    if not node_set:
        return []
    rank = _rank(next(iter(node_set)))
    down = {}
    tops = []
    for u in node_set:
        out = down[u] = []
        top = True
        for i in range(1, rank):
            up = raising_operator(u, i)
            v = lowering_operator(u, i)
            for w in (up, v):
                if w is not None and w not in node_set:
                    raise NotClosed(
                        f"operator image {_serialize(w)} leaves the node set"
                    )
            if up is not None:
                top = False
            if v is not None:
                out.append((i, v))
        if top:
            tops.append(u)
    components = []
    for top in tops:
        comp = {top: down[top]}
        queue = deque([top])
        while queue:
            for _, v in down[queue.popleft()]:
                if v not in comp:
                    if len(comp) >= max_nodes:
                        raise SizeLimitExceeded(
                            f"component exceeds {max_nodes} nodes"
                        )
                    comp[v] = down[v]
                    queue.append(v)
        components.append(_build(comp, top))
    if sum(len(g) for g in components) != len(node_set):
        raise NotConnected("node set is not a union of crystal components")
    components.sort(
        key=lambda g: (_trimmed(g.weight_label), _serialize(g.highest_weight_node))
    )
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


def words_closure(rank: int, length: int):
    """All of [rank]^(x length) as Word values (closed under the operators)."""
    from itertools import product

    return [
        Word(rank, letters)
        for letters in product(range(1, rank + 1), repeat=length)
    ]
