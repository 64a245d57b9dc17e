"""Run-time tracing of the ptableaux layers, used only by the traced run.

``Tracer.install`` wraps each layer's functions (the table ``LAYERS``) and
patches the wrapper into every ptableaux module that holds the original,
because the library imports names into its own modules (``graph`` calls
its own ``raising_operator``, ``tensor`` its own ``_pack_rows`` ...).
Each wrapped call records a span (name, start, end, parent span, job id)
and bumps counters.  Spans stay in memory until the run writes them out.

The graph counts (nodes, edges, operator calls inside a closure) come
from the public ``component`` and ``decompose`` and their results, so they
hold however the closure is written inside.  A few layers are private
helpers (``_pack_rows``, ``_build``, ``_push``).  A helper that is no
longer there is listed in ``Tracer.unresolved`` instead of being wrapped,
and the run fails when a layer its workload must reach records no call,
rather than report a 0 that reads like a gain.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from oracle import is_partition_grid

# Open spans of either public entry point mean "inside the crystal closure".
GRAPH_SPANS = ("graph.component", "graph.decompose")


def _count_hit(tracer, name, result):
    if result is not None:
        tracer.counts[name + ".hits"] += 1
    if any(tracer.open[span] for span in GRAPH_SPANS):
        tracer.counts["graph.op_calls"] += 1


def _pack(tracer, name, result):
    if tracer.open["operators.ptab"]:
        tracer.counts["core.pack.in_op"] += 1


def _hw(tracer, name, result):
    tracer.counts["operators.hw.steps"] += len(result[1])


def _graphs(tracer, name, result):
    """Nodes and edges of what ``component`` or ``decompose`` returned,
    counted at the outermost of the two only."""
    if any(tracer.open[span] for span in GRAPH_SPANS):
        return
    for graph in result if isinstance(result, list) else (result,):
        tracer.counts["graph.nodes"] += len(graph.nodes)
        tracer.counts["graph.edges"] += len(graph.edges)


def _exported(tracer, name, result):
    tracer.counts["graph.export.bytes"] += len(result.encode())


def _tensor(tracer, name, result):
    if is_partition_grid(result.grid):
        tracer.counts["tensor.hits"] += 1


def _evacuated(tracer, name, result):
    tracer.counts["evacuation.slide_steps"] += sum(len(p) - 1 for p in result[1])


def _pushed(tracer, name, result):
    tracer.counts["evacuation.push.states"] += len(result[1])


# (module, attribute, span name, hook run after each call)
LAYERS = [
    ("core", "_pack_rows", "core.pack", _pack),
    ("core", "validate_ptableau", "core.validate", None),
    ("core", "Word.from_text", "core.parse", None),
    ("core", "ParsedWord.from_text", "core.parse", None),
    ("core", "PTableau.from_text", "core.parse", None),
    ("core", "PTableau.from_json", "core.parse", None),
    ("operators", "ptab_raising", "operators.ptab", _count_hit),
    ("operators", "ptab_lowering", "operators.ptab", _count_hit),
    ("operators", "word_raising", "operators.word", _count_hit),
    ("operators", "word_lowering", "operators.word", _count_hit),
    ("operators", "to_highest_weight", "operators.hw", _hw),
    ("graph", "component", "graph.component", _graphs),
    ("graph", "decompose", "graph.decompose", _graphs),
    ("graph", "_build", "graph.build", None),
    ("graph", "export_dot", "graph.export", _exported),
    ("graph", "export_json", "graph.export", _exported),
    ("tensor", "tensor", "tensor", _tensor),
    ("bijections", "ptableau_from_word", "bijections", None),
    ("bijections", "word_from_ptableau", "bijections", None),
    ("bijections", "dual", "bijections", None),
    ("bijections", "matrix_from_ptableau", "bijections", None),
    ("bijections", "biword_from_parsed", "bijections", None),
    ("bijections", "parsed_from_biword", "bijections", None),
    ("bijections", "biword_from_matrix", "bijections", None),
    ("bijections", "rsk", "bijections", None),
    ("evacuation", "evacuate_with_paths", "evacuation", _evacuated),
    ("evacuation", "_push", "evacuation.push", _pushed),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = "prepare"
        self.unresolved: list[str] = []
        self._undo: list = []

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            tracer.open[name] += 1
            tracer.counts[name + ".calls"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.open[name] -= 1
                tracer.stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job)
            if hook is not None:
                hook(tracer, name, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every layer function in every loaded ptableaux module."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "ptableaux" or key.startswith("ptableaux.")
        ]
        for home_name, attr, name, hook in LAYERS:
            home = sys.modules.get("ptableaux." + home_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                raw = vars(getattr(home, cls_name, object)).get(method)
                if not isinstance(raw, classmethod):
                    self.unresolved.append(f"ptableaux.{home_name}.{attr}")
                    continue
                cls = getattr(home, cls_name)
                setattr(cls, method, classmethod(self._wrap(name, raw.__func__, hook)))
                self._undo.append((cls, method, raw))
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.unresolved.append(f"ptableaux.{home_name}.{attr}")
                continue
            wrapped = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def self_times(self) -> Counter:
        """Seconds per span name, each span minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out
