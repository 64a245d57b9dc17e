"""Connected crystal components, decomposition, isomorphism, export."""
from __future__ import annotations

import json
from collections import deque

from .core import ParsedWord, PTableau, Word, _trimmed, weight
from .errors import NotClosed, NotConnected, RankMismatch, SizeLimitExceeded
from .operators import (
    _rank,
    is_highest_weight,
    lowering_operator,
    raising_operator,
)

DEFAULT_MAX_NODES = 10**6


def _serialize(node) -> str:
    if isinstance(node, PTableau):
        return node.to_text().replace("\n", "/")
    if isinstance(node, ParsedWord):
        return node.to_text()
    return node.to_text()


class CrystalGraph:
    """A connected crystal graph: nodes plus lowering-operator edges.

    Edges are stored as (source, i, target) with target = f_i(source);
    raising edges are the reversed view.  Node order is deterministic
    (sorted by serialization).
    """

    __slots__ = ("nodes", "edges", "highest_weight_node", "weight_label", "rank")

    def __init__(self, nodes, edges):
        nodes = tuple(nodes)
        if not nodes:
            raise NotConnected("empty crystal graph")
        self.nodes = nodes
        self.edges = tuple(edges)
        self.rank = _rank(nodes[0])
        hw = [u for u in nodes if is_highest_weight(u)]
        if len(hw) != 1:
            raise NotConnected(
                f"expected a unique highest weight node, found {len(hw)}"
            )
        self.highest_weight_node = hw[0]
        self.weight_label = weight(self.highest_weight_node)

    def __len__(self):
        return len(self.nodes)

    def node_set(self):
        return frozenset(self.nodes)

    def __repr__(self):
        return (
            f"CrystalGraph(weight={self.weight_label}, nodes={len(self.nodes)})"
        )


def _close(seeds, max_nodes: int):
    seen = set(seeds)
    queue = deque(seen)
    rank = _rank(next(iter(seen)))
    while queue:
        u = queue.popleft()
        for i in range(1, rank):
            for op in (raising_operator, lowering_operator):
                v = op(u, i)
                if v is not None and v not in seen:
                    seen.add(v)
                    if len(seen) > max_nodes:
                        raise SizeLimitExceeded(
                            f"component exceeds {max_nodes} nodes"
                        )
                    queue.append(v)
    return seen


def _build(nodes) -> CrystalGraph:
    rank = _rank(next(iter(nodes)))
    ordered = sorted(nodes, key=_serialize)
    edges = []
    for u in ordered:
        for i in range(1, rank):
            v = lowering_operator(u, i)
            if v is not None:
                edges.append((u, i, v))
    return CrystalGraph(ordered, edges)


def component(seed, max_nodes: int = DEFAULT_MAX_NODES) -> CrystalGraph:
    """Breadth-first closure of a single node under all e_i and f_i."""
    return _build(_close([seed], max_nodes))


def decompose(nodes, max_nodes: int = DEFAULT_MAX_NODES):
    """Partition an operator-closed node set into connected components."""
    node_set = set(nodes)
    if not node_set:
        return []
    rank = _rank(next(iter(node_set)))
    for u in node_set:
        for i in range(1, rank):
            for op in (raising_operator, lowering_operator):
                v = op(u, i)
                if v is not None and v not in node_set:
                    raise NotClosed(
                        f"operator image {_serialize(v)} leaves the node set"
                    )
    components = []
    remaining = set(node_set)
    while remaining:
        seed = next(iter(remaining))
        comp = _close([seed], max_nodes)
        remaining -= comp
        components.append(_build(comp))
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
