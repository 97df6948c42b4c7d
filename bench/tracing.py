"""Span recording around calls into the gridroots layers.

The benchmark does not instrument the program.  Instead ``Tracer.patch``
replaces, for the duration of a ``with`` block, the module attributes
and methods that the program's callers look up (for example
``gridroots.extraction.find_row_blocking_separation`` or
``Subgraph.__init__``) with wrappers that record one span per call.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span (or -1), ``op`` the id of the benchmark
operation that caused it, and ``info`` a per-layer detail such as
whether a row scan found a blocker.  Spans are only recorded inside an
operation span opened by the benchmark, so its own verification code
adds nothing.  They stay in memory until the run writes them out.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import gridroots
import gridroots.extraction as extraction
import gridroots.formats as formats
import gridroots.graph as graph
import gridroots.instances as instances
import gridroots.models as models
import gridroots.separations as separations


def _row_scan_info(args, result):
    return result is not None


def _menger_info(args, result):
    return (not result.found_paths, args[0].measure)


# (owner, attribute, span name, info function).  Several attributes may
# share a span name when different callers import the same function.
PATCHES = (
    (extraction, "find_row_blocking_separation", "separations.row_scan", _row_scan_info),
    (extraction, "menger", "separations.menger", _menger_info),
    (separations, "menger", "separations.menger", _menger_info),
    (separations, "blocking_separation", "separations.blocking_separation", None),
    (separations, "reachable_from", "graph.reachable_from", None),
    (graph.Subgraph, "__init__", "graph.Subgraph.new", None),
    (graph.Graph, "delete_edge", "graph.delete_edge", None),
    (graph.Graph, "contract_edge", "graph.contract_edge", None),
    (extraction, "validate_pseudomodel", "models.validate_pseudomodel", None),
    (models, "validate_pseudomodel", "models.validate_pseudomodel", None),
    (extraction, "check_augmentation", "models.check_augmentation", None),
    (models.Pseudomodel, "__init__", "models.Pseudomodel.new", None),
    (extraction, "validate_problem", "extraction.validate_problem", None),
    (extraction, "grid_graph", "grid.grid_graph", None),
    (models, "grid_graph", "grid.grid_graph", None),
    (instances, "grid_graph", "grid.grid_graph", None),
    (instances, "check_hypothesis", "extraction.check_hypothesis", None),
    (gridroots, "check_hypothesis", "extraction.check_hypothesis", None),
    (gridroots, "generate_instance", "instances.generate_instance", None),
    (formats, "canonical_json", "formats.canonical_json", None),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.missing: set[str] = set()

    def _wrap(self, name: str, fn, info):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return wrapper

    @contextmanager
    def patch(self):
        """Install every wrapper; restore the originals on exit.

        An attribute the program no longer has is skipped and listed in
        ``missing``, so its layer reads 0 instead of failing the run.
        """
        saved = []
        try:
            for owner, attr, name, info in PATCHES:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one benchmark operation (``setup``, ``extract`` ...)."""
        rec = [name, 0.0, 0.0, -1, op_id, None]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self._op = -1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself inside an operation."""
        rec = [name, 0.0, 0.0, self._stack[-1], self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, op, info]) + "\n")


class LayerStats:
    """Per-name call counts, inclusive and self time, grouped by root phase."""

    def __init__(self, spans: list[list], first: int = 0):
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.total: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.infos: dict[tuple[str, str], list] = defaultdict(list)
        child = [0.0] * (len(spans) - first)
        phase = [""] * (len(spans) - first)
        for i in range(first, len(spans)):
            name, start, end, parent, _op, info = spans[i]
            j = i - first
            phase[j] = name if parent < first else phase[parent - first]
            dur = end - start
            if parent >= first:
                child[parent - first] += dur
        for i in range(first, len(spans)):
            name, start, end, _parent, _op, info = spans[i]
            j = i - first
            key = (phase[j], name)
            dur = end - start
            self.calls[key] += 1
            self.total[key] += dur
            self.self_time[key] += dur - child[j]
            if info is not None:
                self.infos[key].append(info)
