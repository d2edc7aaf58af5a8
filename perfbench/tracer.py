"""Outside-in tracer for the ``matchcover`` modules.

The tracer never edits the package.  It replaces the module-level names that
callers look up (in every ``matchcover`` module that binds them) with
wrappers that record one span per call: a name, a start, an end and the
index of the enclosing span.  Spans and counts stay in memory until the run
ends; the run writes them out and derives each layer's self time as a span's
duration minus the time covered by its child spans.

A span name is ``<layer>.<what>``; the layer is the module that owns the
wrapped function.  Names never nest inside themselves, so the inclusive time
of a name is the plain sum of its span durations.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter
from functools import cached_property

# (module, attribute, span name) for every function the tracer wraps.
KERNEL_TARGETS = (
    ("graph", "parse_graph6", "graph.graph6_decode"),
    ("graph", "to_graph6", "graph.graph6_encode"),
    ("graph", "is_connected", "graph.bfs"),
    ("graph", "distance_to_set", "graph.bfs"),
    ("graph", "bipartition", "graph.bfs"),
    ("graph", "delete_edge", "graph.delete"),
    ("graph", "delete_vertices", "graph.delete"),
    ("matching", "matching_number", "matching.blossom"),
    ("matching", "maximum_matching", "matching.blossom"),
    ("matching", "_matching_number_excluding", "matching.blossom"),
    ("matching", "brute_force_matching_number", "matching.oracle_nu"),
    ("matching", "enumerate_maximum_matchings", "matching.enumerate"),
    ("matching", "matchings_containing", "matching.containing"),
    ("matching", "covered_and_missed", "matching.covered_and_missed"),
    ("cover", "_is_allowed", "cover.allowed_test"),
    ("cover", "is_matching_covered", "cover.covered"),
    ("cover", "_no_deletion_covered", "cover.no_deletion_covered"),
    ("cover", "is_minimal_matching_covered", "cover.minimal_covered"),
    ("cover", "allowed_edges", "cover.allowed_edges"),
    ("cover", "allowed_edges_enumerated", "cover.allowed_edges_enumerated"),
    ("cover", "core_subgraph", "cover.core"),
    ("cover", "analyze", "cover.analyze"),
    ("cover", "minimize_with_trace", "cover.minimize"),
    ("cover", "find_dominated_edge", "cover.dominated"),
    ("cover", "theorem_witness_sequence", "cover.witness"),
    ("cover", "shared_matching_set", "cover.shared"),
    ("cover", "mu", "cover.mu"),
    ("sweep", "_graph_from_mask", "sweep.population"),
    ("sweep", "random_graph", "sweep.population"),
    ("sweep", "_reverify_failure", "sweep.reverify"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.parse"),
    ("cli", "_load_graph", "cli.parse"),
    ("cli", "canonical_json", "cli.json"),
    ("cli", "cmd_analyze", "cli.command"),
    ("cli", "cmd_core", "cli.command"),
    ("cli", "cmd_minimize", "cli.command"),
    ("cli", "cmd_witness", "cli.command"),
)

ORCHESTRATION_TARGETS = (
    ("sweep", "run_sweep", "sweep.run"),
    ("sweep", "_sweep_chunk", "sweep.chunk"),
    ("sweep", "_merge_tallies", "sweep.merge"),
)


def _timed_call(func, arg):
    # Runs in a pool worker: the chunk's busy time travels back with its result.
    start = time.perf_counter()
    result = func(arg)
    return result, time.perf_counter() - start


class Tracer:
    """Spans and counts of one traced pass, held in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.chunk_busy: list[float] = []
        self.missing: list[str] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func, on_result=None):
        """``func`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installing and removing wrappers ------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, mc, module: str, attr: str, name: str, on_result=None):
        """Wrap ``matchcover.<module>.<attr>`` in every module that binds it."""
        original = getattr(getattr(mc, module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        traced = self.wrap(name, original, on_result)
        for owner in (mc, mc.graph, mc.matching, mc.cover, mc.sweep, mc.cli):
            if owner.__dict__.get(attr) is original:
                self._set(owner, attr, traced)

    def install_kernel(self, mc) -> None:
        """Wrap the graph, matching, cover, sweep-check and cli names."""
        hooks = {
            "enumerate_maximum_matchings": self._count_matchings,
            "minimize_with_trace": self._count_minimize_steps,
            "build_parser": self._trace_parse_args,
        }
        for module, attr, name in KERNEL_TARGETS:
            self.patch_function(mc, module, attr, name, hooks.get(attr))
        graph_cls = mc.graph.Graph
        self._set(graph_cls, "__init__", self.wrap("graph.build", graph_cls.__init__))
        adjacency = graph_cls.__dict__["adjacency"]
        traced_adjacency = cached_property(self.wrap("graph.adjacency", adjacency.func))
        traced_adjacency.__set_name__(graph_cls, "adjacency")
        self._set(graph_cls, "adjacency", traced_adjacency)
        checks = getattr(mc.sweep, "_CHECKS", None)
        if checks is None:
            self.missing.append("sweep._CHECKS")
        else:
            self._set(mc.sweep, "_CHECKS", {
                prop: self.wrap(f"sweep.check.{prop}", check)
                for prop, check in checks.items()
            })

    def install_orchestration(self, mc) -> None:
        """Wrap ``run_sweep``, its chunks, the merge and the worker pool."""
        for module, attr, name in ORCHESTRATION_TARGETS:
            self.patch_function(mc, module, attr, name)
        pool = getattr(mc.sweep, "Pool", None)
        if pool is None:
            self.missing.append("sweep.Pool")
        else:
            self._set(mc.sweep, "Pool", functools.partial(_TimedPool, self, pool))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counts recorded at the boundaries ------------------------------------

    def _count_matchings(self, matching_set) -> None:
        self.counts["matching.matchings_enumerated"] += len(matching_set)

    def _count_minimize_steps(self, result) -> None:
        self.counts["cover.minimize_steps"] += len(result[2])

    def _trace_parse_args(self, parser) -> None:
        parser.parse_args = self.wrap("cli.parse", parser.parse_args)

    # -- results --------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * len(names)))
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(names):
            duration = ends[i] - starts[i]
            calls[nid] += 1
            inclusive[nid] += duration
            own[nid] += duration - child[i]
        return {
            name: (calls[nid], inclusive[nid], own[nid])
            for nid, name in enumerate(self.names)
        }

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [
            end - start
            for n, start, end in zip(self.span_name, self.span_start, self.span_end)
            if n == nid
        ]

    def write_spans(self, path) -> None:
        """One line per span: name, start and end in microseconds from the
        first span, and the parent's line number (0-based, -1 for none)."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("name\tstart_us\tend_us\tparent\n")
            names = self.names
            for nid, start, end, parent in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                out.write(
                    f"{names[nid]}\t{(start - origin) * 1e6:.3f}\t"
                    f"{(end - origin) * 1e6:.3f}\t{parent}\n"
                )


class _TimedPool:
    """Stands in for ``multiprocessing.Pool`` inside ``run_sweep``.

    Start-up is a span in the parent; each chunk's busy time is measured in
    the worker and returned with the chunk's result.
    """

    def __init__(self, tracer: Tracer, pool_factory, *args, **kwargs):
        self._tracer = tracer
        self._pool = tracer.wrap("sweep.pool_start", pool_factory)(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._pool.__exit__(*exc_info)

    def map(self, func, iterable):
        timed = self._pool.map(functools.partial(_timed_call, func), iterable)
        self._tracer.chunk_busy.extend(busy for _, busy in timed)
        return [result for result, _ in timed]
