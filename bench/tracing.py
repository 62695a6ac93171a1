"""Traced runs: spans around calls into each layer, recorded from outside the package.

The tracer replaces, for traced passes only, the module attributes that
`cli`, `claims` and the other layers look up at call time, and a few public
methods, with wrappers that record spans. `restore()` puts every original
back. Calls that happen thousands of times per op (`closed_mask`, `decode`)
are folded into a count plus total time instead of one span each.

A span's self time is its duration minus the time covered by its child
spans and by folded calls made while it was the innermost open span.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Module attribute -> layer metric prefix. Each is wrapped in every layer
# module that binds it, so nested calls inside the package are seen too.
SPANNED_FUNCTIONS = {
    "run_claim": "claims",
    "search_constrained": "codes.search",
    "find_perfect_code": "codes.search",
    "is_perfect_code": "codes.validate",
    "build_graph": "graphs.build",
    "construct_gen_lucas_code": "hamming.construct",
    "enumerate_family": "words.enum",
    "iter_family_bits": "words.enum",
}
LAYER_MODULES = ("words", "graphs", "codes", "hamming", "claims", "cli")
ROOT_SPAN = "cli"

PER_LAYER_METRICS = (
    ("words.enum_s", "s"),
    ("words.scanned", "count"),
    ("words.keep_ratio", "ratio"),
    ("graphs.build_s", "s"),
    ("graphs.vertices", "count"),
    ("graphs.connect_s", "s"),
    ("graphs.profile_s", "s"),
    ("graphs.masks_s", "s"),
    ("codes.search_s", "s"),
    ("codes.ns_per_node", "ns/node"),
    ("codes.nodes", "count"),
    ("codes.budget_hits", "count"),
    ("codes.validate_s", "s"),
    ("codes.validate_calls", "count"),
    ("hamming.construct_s", "s"),
    ("hamming.decode_s", "s"),
    ("hamming.decodes", "count"),
    ("claims.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.ops", "count"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Span recorder for one traced run; install() patches, restore() undoes."""

    def __init__(self, cubecodes_modules: dict):
        self.modules = cubecodes_modules
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self._stack: list[int] = []  # indices of open spans
        self._covered: list[float] = []  # child time per open span
        self._patches: list[tuple] = []
        self.op_id = -1
        self._reset_pass()

    # -- pass accounting --------------------------------------------------

    def _reset_pass(self):
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def _add(self, table: dict, key: str, value):
        table[key] = table.get(key, 0) + value

    def pass_totals(self) -> dict:
        """Per-layer numbers of the pass just finished; starts the next pass."""
        t, c = self.self_time, self.counts
        scanned = c.get("words.scanned", 0)
        nodes = c.get("codes.nodes", 0)
        search_s = t.get("codes.search", 0.0)
        totals = {
            "words.enum_s": t.get("words.enum", 0.0),
            "words.scanned": scanned,
            "words.keep_ratio": c.get("words.kept", 0) / scanned if scanned else 0.0,
            "graphs.build_s": t.get("graphs.build", 0.0),
            "graphs.vertices": c.get("graphs.vertices", 0),
            "graphs.connect_s": t.get("graphs.connect", 0.0),
            "graphs.profile_s": t.get("graphs.profile", 0.0),
            "graphs.masks_s": t.get("graphs.masks", 0.0),
            "codes.search_s": search_s,
            "codes.ns_per_node": search_s * 1e9 / nodes if nodes else 0.0,
            "codes.nodes": nodes,
            "codes.budget_hits": c.get("codes.budget_hits", 0),
            "codes.validate_s": t.get("codes.validate", 0.0),
            "codes.validate_calls": c.get("codes.validate", 0),
            "hamming.construct_s": t.get("hamming.construct", 0.0),
            "hamming.decode_s": t.get("hamming.decode", 0.0),
            "hamming.decodes": c.get("hamming.decode", 0),
            "claims.self_s": t.get("claims", 0.0),
            "cli.self_s": t.get(ROOT_SPAN, 0.0),
            "cli.ops": c.get(ROOT_SPAN, 0),
        }
        self._reset_pass()
        return totals

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> float:
        self._stack.append(len(self.spans))
        self._covered.append(0.0)
        parent = self._stack[-2] if len(self._stack) > 1 else None
        start = perf_counter()
        self.spans.append((name, start, None, parent, self.op_id))
        return start

    def _close(self, name: str, start: float):
        end = perf_counter()
        index = self._stack.pop()
        covered = self._covered.pop()
        self.spans[index] = (name, start, end, self.spans[index][3], self.op_id)
        duration = end - start
        if self._covered:
            self._covered[-1] += duration
        self._add(self.self_time, name, duration - covered)
        self._add(self.counts, name, 1)

    def op(self, call, *args):
        """Run one op as the root span of a new op id."""
        self.op_id += 1
        start = self._open(ROOT_SPAN)
        try:
            return call(*args)
        finally:
            self._close(ROOT_SPAN, start)

    def _spanned(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            start = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    result = on_result(result, *args, **kwargs)
                return result
            finally:
                self._close(name, start)

        return wrapper

    def _folded(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._add(self.self_time, name, duration)
                self._add(self.counts, name, 1)
                if self._covered:
                    self._covered[-1] += duration

        return wrapper

    # -- per-call counts ---------------------------------------------------

    def _count_words(self, result, family, n, cap=None):
        # Materialised inside the span so the scan's time is the span's time.
        members = list(result)
        self._add(self.counts, "words.scanned", 1 << n)
        self._add(self.counts, "words.kept", len(members))
        return iter(members)

    def _count_vertices(self, graph, *args, **kwargs):
        self._add(self.counts, "graphs.vertices", len(graph))
        return graph

    def _count_search(self, outcome, *args, **kwargs):
        self._add(self.counts, "codes.nodes", outcome.nodes)
        if outcome.status == "budget-exceeded":
            self._add(self.counts, "codes.budget_hits", 1)
        return outcome

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        hooks = {
            "iter_family_bits": self._count_words,
            "build_graph": self._count_vertices,
            "search_constrained": self._count_search,
        }
        for attr, name in SPANNED_FUNCTIONS.items():
            original = None
            for module_name in LAYER_MODULES:
                module = self.modules[module_name]
                if attr in module.__dict__:
                    original = original or module.__dict__[attr]
                    if module.__dict__[attr] is not original:
                        raise RuntimeError(f"{module_name}.{attr} is not the shared function")
            wrapper = self._spanned(name, original, hooks.get(attr))
            for module_name in LAYER_MODULES:
                module = self.modules[module_name]
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        graph_cls = self.modules["graphs"].InducedGraph
        hamming_cls = self.modules["hamming"].HammingCode
        self._patch(graph_cls, "closed_mask", self._folded("graphs.masks", graph_cls.closed_mask))
        self._patch(hamming_cls, "decode", self._folded("hamming.decode", hamming_cls.decode))
        self._patch(graph_cls, "is_connected", self._spanned("graphs.connect", graph_cls.is_connected))
        self._patch(
            graph_cls,
            "level_degree_profile",
            self._spanned("graphs.profile", graph_cls.level_degree_profile),
        )

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def per_layer_metrics(pass_totals: list[dict], untraced_pass: float, traced_pass: float) -> dict:
    """Low median over traced passes of each per-layer number, plus tracing overhead.

    The overhead compares mean pass times, traced against untraced.
    """
    out = {name: statistics.median_low(p[name] for p in pass_totals)
           for name, _ in PER_LAYER_METRICS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = traced_pass / untraced_pass - 1.0
    return out
