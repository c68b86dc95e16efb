"""Spans around the calls into each layer of ``quiverperm``, for the traced
benchmark pass.

``Tracer.installed()`` replaces each target function, wherever a
``quiverperm`` module holds a reference to it, by a wrapper that records a
span, and puts every original back on exit.  Spans are aggregated as they
close: calls and self time per name (self time is the span's duration minus
the durations of its child spans), parent -> child call counts, calls made
anywhere below a watched span, and the root spans themselves.  The wrapper's
own cost lands partly in the parent's self time; ``trace.overhead_ratio``
reports the total.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# (span name, owner, attribute): the owner is a module, or "module:Class"
# for a method.  Two targets may share a span name.
TARGETS = (
    ("quiver.mutate", "quiverperm.quiver", "mutate"),
    ("quiver.validate", "quiverperm.quiver:ExtendedExchangeMatrix",
     "__post_init__"),
    ("quiver.validate", "quiverperm.quiver:ExchangeMatrix", "__post_init__"),
    ("quiver.find_row_permutation", "quiverperm.quiver",
     "find_row_permutation"),
    ("search.enumerate_loops", "quiverperm.search", "enumerate_loops"),
    ("search.enumerate_mgs", "quiverperm.search", "enumerate_mgs"),
    ("search.build_exchange_graph", "quiverperm.search",
     "build_exchange_graph"),
    ("search.graph_to_dot", "quiverperm.search", "graph_to_dot"),
    ("formula.verify", "quiverperm.formula", "verify"),
    ("formula.step_vertex", "quiverperm.formula:TrackedState", "step_vertex"),
    ("standard.factor_standard", "quiverperm.standard", "factor_standard"),
    ("picture.word_from_sequence", "quiverperm.picture", "word_from_sequence"),
    ("roots.vector_to_signed_root", "quiverperm.roots",
     "vector_to_signed_root"),
    ("perm.Permutation.init", "quiverperm.perm:Permutation", "__init__"),
    ("cli", "quiverperm.cli", "main"),
)
NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# per-call sizes summed per span name: of the result, or of the arguments
RESULT_SIZES = {
    "search.enumerate_loops": len,
    "search.enumerate_mgs": len,
    "search.build_exchange_graph": lambda graph: graph.node_count,
}
ARG_SIZES = {"formula.verify": lambda m, seq, *args, **kwargs: len(seq)}
# spans whose descendants are counted by name, at any depth
WATCHED = ("formula.verify", "search.build_exchange_graph")
# spans whose individual durations are kept, for percentiles
KEEP_DURATIONS = ("formula.verify",)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "quiverperm" or name.startswith("quiverperm.")]


class Tracer:
    def __init__(self):
        self.index = {name: i for i, name in enumerate(NAMES)}
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.sizes = Counter()
        self.edges = Counter()      # (parent index or -1, child index) -> calls
        self.below = Counter()      # (watched index, descendant index) -> calls
        self.durations = {self.index[n]: [] for n in KEEP_DURATIONS}
        self.roots: list[tuple[int, int, int]] = []  # (index, start, end) ns
        self.missing: list[str] = []
        self._stack: list[list[int]] = []   # [index, child ns] per open span
        self._active = [0] * len(NAMES)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        idx = self.index[name]
        clock = time.perf_counter_ns
        stack, active, calls, self_ns = (self._stack, self._active,
                                         self.calls, self.self_ns)
        edges, below, roots, sizes = (self.edges, self.below, self.roots,
                                      self.sizes)
        watched = [self.index[w] for w in WATCHED]
        durations = self.durations.get(idx)
        result_size = RESULT_SIZES.get(name)
        arg_size = ARG_SIZES.get(name)

        def wrapper(*args, **kwargs):
            edges[stack[-1][0] if stack else -1, idx] += 1
            for w in watched:
                if active[w]:
                    below[w, idx] += 1
            if arg_size is not None:
                sizes[name] += arg_size(*args, **kwargs)
            frame = [idx, 0]
            stack.append(frame)
            active[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[idx] -= 1
                stack.pop()
                dur = end - start
                self_ns[idx] += dur - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    roots.append((idx, start, end))
                if durations is not None:
                    durations.append(dur)
            if result_size is not None:
                sizes[name] += result_size(result)
            return result

        return wrapper

    def _patch(self, holder, attr, value):
        self._saved.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self) -> None:
        modules = _package_modules()
        for name, owner, attr in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = sys.modules.get(module_name)
            holder = (getattr(module, class_name, None) if class_name
                      else module)
            original = (vars(holder).get(attr) if holder is not None
                        else None)
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            if class_name:
                self._patch(holder, attr, wrapper)
                continue
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def calls_of(self, name: str) -> int:
        return self.calls[self.index[name]]

    def self_s(self, name: str) -> float:
        return self.self_ns[self.index[name]] / 1e9

    def root_counts(self) -> Counter:
        return Counter(NAMES[idx] for idx, _, _ in self.roots)

    def below_count(self, watched: str, name: str) -> int:
        return self.below[self.index[watched], self.index[name]]

    def child_count(self, parent: str, child: str) -> int:
        return self.edges[self.index[parent], self.index[child]]


def tail_percentile(n: int):
    """The highest of p50, p90, p99, ... with at least ten samples beyond
    it, or ``None`` below twenty samples."""
    best = None
    p = 50.0
    while n * (100 - p) / 100 >= 10:
        best = p
        p = 90.0 if p == 50.0 else 100 - (100 - p) / 10
    return best


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name in ("quiver.mutate", "quiver.validate",
                 "quiver.find_row_permutation", "formula.verify",
                 "formula.step_vertex", "standard.factor_standard",
                 "picture.word_from_sequence", "roots.vector_to_signed_root",
                 "perm.Permutation.init"):
        out[f"{name}.calls"] = (tracer.calls_of(name), "count")
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name in ("search.enumerate_loops", "search.enumerate_mgs",
                 "search.build_exchange_graph", "search.graph_to_dot"):
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")
    out["cli.self_s"] = (tracer.self_s("cli"), "s")

    prefixes = tracer.child_count("search.enumerate_loops", "quiver.mutate")
    found = tracer.sizes["search.enumerate_loops"]
    out["search.loops.prefixes"] = (prefixes, "count")
    out["search.loops.found"] = (found, "count")
    out["search.loops.hit_ratio"] = (found / prefixes if prefixes else 0.0,
                                     "ratio")
    out["search.mgs.found"] = (tracer.sizes["search.enumerate_mgs"], "count")
    nodes = tracer.sizes["search.build_exchange_graph"]
    graph_mutates = tracer.below_count("search.build_exchange_graph",
                                       "quiver.mutate")
    out["search.graph.nodes"] = (nodes, "count")
    out["search.graph.mutates_per_node"] = (
        graph_mutates / nodes if nodes else 0.0, "ratio")

    durations = sorted(tracer.durations[tracer.index["formula.verify"]])
    tail = tail_percentile(len(durations))
    out["formula.verify.samples"] = (len(durations), "count")
    out["formula.verify.p50_us"] = (
        percentile(durations, 50) / 1e3 if durations else 0.0, "us")
    out["formula.verify.tail_pct"] = (tail or 0.0, "%")
    out["formula.verify.tail_us"] = (
        percentile(durations, tail) / 1e3 if tail else 0.0, "us")
    verified_len = tracer.sizes["formula.verify"]
    out["formula.verify.replay_factor"] = (
        tracer.below_count("formula.verify", "quiver.mutate") / verified_len
        if verified_len else 0.0, "ratio")
    return out
