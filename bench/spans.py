"""Span recording around calls into the avd modules, from outside the package.

A function is wrapped at every name it is looked up through: the defining
module, `avd.cli`, the package namespace and any other `avd.*` module that
imported it. Calls made inside the package (for example `validate_curve`
calling `extract_bisector`) go through the module globals, so they are caught
too. Spans stay in memory as (name, start, end, parent, item) tuples.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Iterator, Optional

#: (module, function) pairs the traced run wraps, one per layer boundary, with
#: the end-to-end metric each should move and where it should not:
#:  - cli.main self time (argparse, JSON, file writes): latency on edge-scene
#:    and diagram.
#:  - canonicalize, build_edge, compose_affine: throughput on pair-sweep.
#:  - classify.*: throughput on pair-sweep, latency_p50 on edge-scene; no
#:    change on diagram.
#:  - validate_curve, extract_bisector, implicit_polylines: latency p50/p90
#:    on edge-scene; no change on pair-sweep or diagram.
#:  - rasterize_diagram: latency_p50 and peak_rss on diagram.
#:  - render_edge_scene / render_diagram: latency on edge-scene / diagram.
LAYERS: tuple[tuple[str, str], ...] = (
    ("cli", "main"),
    ("geometry", "canonicalize"),
    ("edge", "build_edge"),
    ("poly", "compose_affine"),
    ("classify", "classify_edge"),
    ("classify", "factor_circle_line"),
    ("classify", "find_singularities"),
    ("classify", "classify_quadratic"),
    ("classify", "detect_geometric_degeneracy"),
    ("oracle", "validate_curve"),
    ("oracle", "extract_bisector"),
    ("oracle", "implicit_polylines"),
    ("oracle", "rasterize_diagram"),
    ("svg", "render_edge_scene"),
    ("svg", "render_diagram"),
)

Wrapper = Callable[[Callable], Callable]


@contextlib.contextmanager
def patched(wrappers: dict[tuple[str, str], Wrapper]) -> Iterator[None]:
    """Replace each avd.<module>.<function> by wrapper(current object) at every
    avd module attribute that holds the current object; restore on exit.

    Patches compose: a second `patched` wraps whatever the first installed.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for (module, name), make in wrappers.items():
            current = getattr(sys.modules[f"avd.{module}"], name)
            replacement = make(current)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "avd" and not mod_name.startswith("avd."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is current:
                        setattr(mod, attr, replacement)
                        undo.append((mod, attr, current))
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


def _grid_nodes(grid) -> int:
    return int(grid.nx) * int(grid.ny)


#: Layers whose arguments or result feed a work counter.
COUNTED = frozenset({
    "classify.find_singularities", "classify.factor_circle_line",
    "oracle.extract_bisector", "oracle.implicit_polylines", "oracle.validate_curve",
    "oracle.rasterize_diagram", "svg.render_edge_scene", "svg.render_diagram",
})


def _count(counts: Counter, layer: str, args: dict, result) -> None:
    """Work counters measured at the layer boundary from arguments and result.
    result is None when the call raised (extract_bisector raises EmptyResult
    after evaluating its field), so only argument-based counts apply then."""
    if layer == "classify.find_singularities":
        counts["classify.singular_points"] += len(result or ())
    elif layer == "classify.factor_circle_line":
        counts["classify.factor_hits"] += result is not None
    elif layer == "oracle.extract_bisector":
        if result is not None:
            counts["oracle.oracle_vertices"] += sum(len(p) for p in result.polylines)
        counts["oracle.grid_nodes"] += _grid_nodes(args["grid"])
    elif layer in ("oracle.implicit_polylines", "oracle.validate_curve"):
        # validate_curve's own polynomial field; its inner extract_bisector
        # call is counted by that span.
        counts["oracle.grid_nodes"] += _grid_nodes(args["grid"])
    elif layer == "oracle.rasterize_diagram":
        nodes = _grid_nodes(args["grid"])
        counts["oracle.grid_nodes"] += nodes
        counts["oracle.raster_bytes_computed"] += len(args["sites"]) * nodes * 8
    elif layer.startswith("svg.render_") and result is not None:
        counts["svg.bytes"] += len(result.encode("utf-8"))


class Tracer:
    """In-memory span recorder. `item` labels the spans of the current item."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, float, float, int, int]]] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []

    def wrappers(self) -> dict[tuple[str, str], Wrapper]:
        """Wrappers for every layer the package still defines; a layer that
        a later version removes reports zero calls instead of failing."""
        return {(m, f): functools.partial(self._wrap, f"{m}.{f}") for m, f in LAYERS
                if hasattr(sys.modules[f"avd.{m}"], f)}

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn) if layer in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent, self.item)
                if signature is not None:
                    _count(self.counts, layer, signature.bind(*args, **kwargs).arguments,
                           result)

        return traced

    def self_times(self) -> tuple[dict[str, float], Counter, dict[int, float]]:
        """Per layer total self time (s) and call count, and per item the
        summed self time of its spans. Self time is a span's duration minus
        the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        calls: Counter = Counter()
        per_item: dict[int, float] = {}
        for i, (name, start, end, _, item) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            totals[name] = totals.get(name, 0.0) + own
            calls[name] += 1
            per_item[item] = per_item.get(item, 0.0) + own
        return totals, calls, per_item
