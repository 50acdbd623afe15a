"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces each public function listed in ``SPANS`` at
every ``symbreak`` module binding it is reachable through, so calls one
module makes into another are caught as well as calls from the harness.
A call nested inside another traced call is a child span; a span's self
time is its duration minus the time its children cover.  Results of some
calls also feed counters (tree nodes, gate accepts, ...).  The originals
are put back when the block ends.
"""

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

# (defining module, function, span name); a span's self time is "<span>_s"
SPANS = (
    ("smodels", "parse_program", "smodels.parse"),
    ("smodels", "write_program", "smodels.write"),
    ("smodels", "validate", "smodels.validate"),
    ("smodels", "semantic_view", "smodels.semantic_view"),
    ("encoding", "encode_program", "encoding.encode"),
    ("encoding", "fix_nodes", "encoding.fix_nodes"),
    ("automorphism", "find_generators", "automorphism.search"),
    ("automorphism", "color_refine", "automorphism.refine"),
    ("symmetry", "is_syntactic_symmetry", "symmetry.gate"),
    ("symmetry", "restrict_to_atoms", "symmetry.restrict"),
    ("symmetry", "detect_rows", "symmetry.rows"),
    ("symmetry", "choose_order", "symmetry.order"),
    ("symmetry", "stabilizer_binary_symmetries", "symmetry.stab"),
    ("breaking", "lex_leader_rules", "breaking.lex"),
    ("breaking", "break_rows", "breaking.rows"),
    ("breaking", "binary_rules", "breaking.binary"),
    ("breaking", "assemble", "breaking.assemble"),
    ("pipeline", "break_program", "pipeline.self"),
    ("pipeline", "detect_symmetries", "pipeline.self"),
)


def _count_graph(counts, graph):
    counts["encoding.nodes"] += graph.n_nodes
    counts["encoding.edges"] += sum(map(len, graph.neighbors)) // 2


def _count_search(counts, search):
    counts["automorphism.tree_nodes"] += search.tree_nodes
    counts["automorphism.generators"] += len(search.generators)
    counts["automorphism.incomplete"] += not search.complete


# function name -> how its result feeds the counters
OBSERVERS = {
    "encode_program": _count_graph,
    "find_generators": _count_search,
    "is_syntactic_symmetry": lambda c, ok: c.update({"symmetry.gate_accepts": bool(ok)}),
    "detect_symmetries": lambda c, d: c.update({"symmetry.generators": len(d.generators)}),
    "detect_rows": lambda c, rows: c.update({"symmetry.rows": len(rows)}),
    "break_program": lambda c, r: c.update({"symmetry.binpairs": len(r.pairs)}),
    "lex_leader_rules": lambda c, _: c.update({"breaking.fragments": 1}),
    "binary_rules": lambda c, _: c.update({"breaking.fragments": 1}),
}


class Tracer:
    """Self time and call count per span, plus counters, over one traced block."""

    def __init__(self):
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._children_ns = []  # one entry per open span: time its children took

    def _wrap(self, fn, span):
        observe = OBSERVERS.get(fn.__name__)
        clock = time.perf_counter_ns
        open_spans = self._children_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_ns[span] += elapsed - open_spans.pop()
                self.calls[span] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        wrappers = {}
        for module, name, span in SPANS:
            fn = getattr(importlib.import_module(f"symbreak.{module}"), name)
            wrappers[id(fn)] = (fn, self._wrap(fn, span))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "symbreak"
                                      or module_name.startswith("symbreak.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def seconds(self, span: str) -> float:
        return self.self_ns[span] / 1e9

    def total_seconds(self) -> float:
        """Sum of every span's self time."""
        return sum(self.self_ns.values()) / 1e9
