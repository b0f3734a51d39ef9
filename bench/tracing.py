"""Timing of benchmark→layer calls, with optional spans.

Every call from a workload into an ``epiupdate`` layer goes through
``Tracer.call``, and the calls that make up one item of work run inside
``Tracer.item``.  Items are timed in every run; an item entered more than
once accumulates its time.  With tracing on, each call and each item
block also records a span (name, start, end, parent span, item id), kept
in memory and written out when the run ends.  Spans are taken in the benchmark's own code, around
the calls; nothing inside the program is instrumented.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

ITEM = "bench.item"
SETUP = "setup"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    item: str
    tag: str | None
    qty: dict


class Tracer:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self.item_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.t0 = None
        self._item = SETUP
        self._item_span: int | None = None

    def begin(self) -> None:
        """Start the measured run."""
        self.t0 = perf_counter()
        self._item = None

    def call(self, name: str, fn, *args, tag: str | None = None, qty=None):
        """``fn(*args)``; ``qty(result)`` gives the span's counts, e.g. worlds."""
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        if self.traced:
            self.spans.append(Span(name, start, end, self._item_span, self._item, tag,
                                   qty(result) if qty else {}))
        return result

    @contextmanager
    def item(self, item_id: str):
        self._item = item_id
        if self.traced:
            self._item_span = len(self.spans)
            self.spans.append(None)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.item_s[item_id] = self.item_s.get(item_id, 0.0) + end - start
            if self.traced:
                self.spans[self._item_span] = Span(ITEM, start, end, None, item_id, None, {})
            self._item = self._item_span = None


def layer_metrics(spans: list[Span], t0: float, wall_s: float) -> dict:
    """Per-layer counts, self times and shares computed from the spans.

    Names are ``<module>.<function>.<quantity>``: ``calls``, ``s`` (summed
    self time), one entry per span quantity, and ``<tag>.s`` for tagged
    spans.  ``<module>.share`` is the module's self time in the measured
    run over ``wall_s``; ``trace.coverage`` is the share of ``wall_s``
    spent inside layer calls.
    """
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] += sp.end - sp.start
    out: dict[str, float] = {}
    module_s: dict[str, float] = {}
    for i, sp in enumerate(spans):
        self_s = sp.end - sp.start - child_s[i]
        out[f"{sp.name}.calls"] = out.get(f"{sp.name}.calls", 0) + 1
        out[f"{sp.name}.s"] = out.get(f"{sp.name}.s", 0.0) + self_s
        if sp.tag:
            key = f"{sp.name}.{sp.tag}.s"
            out[key] = out.get(key, 0.0) + self_s
        for q, v in sp.qty.items():
            out[f"{sp.name}.{q}"] = out.get(f"{sp.name}.{q}", 0) + v
        if sp.start >= t0:
            module = sp.name.split(".", 1)[0]
            module_s[module] = module_s.get(module, 0.0) + self_s
    for module, s in module_s.items():
        out[f"{module}.share"] = s / wall_s
    out["trace.coverage"] = sum(s for m, s in module_s.items() if m != "bench") / wall_s
    out["trace.spans"] = len(spans)
    return out


def span_records(spans: list[Span], t0: float) -> list[dict]:
    """Spans as JSON records, times in seconds from the start of the run."""
    return [{"name": sp.name, "start": sp.start - t0, "end": sp.end - t0,
             "parent": sp.parent, "item": sp.item, "tag": sp.tag, **sp.qty}
            for sp in spans]
