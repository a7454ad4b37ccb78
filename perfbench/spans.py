"""Spans and counters recorded from outside distortion_lab.

A traced pass replaces public entry points of the library with wrappers
(see :meth:`Tracer.installed`). Each wrapper records one span per call: name,
start, end, parent span and operation id. The oracles reach the solver as
``lp.solve`` and each other through their module's globals, so replacing a
module attribute sees every call, nested ones included. Spans stay in memory
and are written out when the run ends.

The layer of a span is the part of its name before the first dot. A span's
self time is its duration minus the part of that interval its child spans
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterable

import numpy as np

ORACLE_ENTRY_POINTS = ("metric_distortion", "utilitarian_distortion")
ORACLE_WRAPPERS = ("rule_distortion", "exhaustive_worst_case")
_ORACLE_SPAN_NAMES = frozenset("oracles." + n for n in ORACLE_ENTRY_POINTS)
RULE_ENTRY_POINTS = (
    "plurality",
    "copeland",
    "plurality_veto",
    "pruned_plurality_veto",
    "random_dictatorship",
    "harmonic_rule",
    "truncated_harmonic",
    "top_t_det_rule",
    "top_t_truncated_harmonic",
)
COUNTER_KEYS = (
    "lp.solves",
    "lp.rows",
    "lp.cols",
    "lp.pivots.p1",
    "lp.pivots.p2",
    "lp.tableau_bytes.max",
    "oracles.calls",
    "oracles.unbounded",
    "rules.calls",
)
# Counters a timing pass keeps too; the others are left to counting passes.
SPAN_COUNTER_KEYS = ("lp.solves", "oracles.calls", "oracles.unbounded", "rules.calls")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op]


class PivotCounter:
    """Text sink for ``lp.solve(dump=...)`` that counts pivots per phase.

    The solver writes one ``pivot:`` line per pivot and a ``--- phase 2
    start`` marker between the phases; pivots before the marker are phase 1.
    """

    def __init__(self):
        self.pivots = [0, 0]
        self._phase = 0

    def write(self, text: str):
        if text.startswith("pivot:"):
            self.pivots[self._phase] += 1
        elif text.startswith("--- phase 2 start"):
            self._phase = 1


def tableau_bytes(prog) -> int:
    """Bytes of the dense tableau ``lp.solve`` builds for ``prog`` (computed).

    One row per constraint plus the objective row; one column per variable,
    per slack (``<=`` and ``>=`` rows), per artificial (``>=`` and ``=``
    rows) plus the right-hand side. Rows with a negative shifted right-hand
    side are flipped first, which swaps ``<=`` and ``>=``.
    """
    b = prog.rhs - prog.lhs @ prog.lower_bounds
    slack = art = 0
    for rel, neg in zip(prog.relations, b < 0):
        if rel != "=":
            slack += 1
        if rel == "=" or (rel == ">=") != bool(neg):
            art += 1
    return 8 * (prog.n_rows + 1) * (prog.n_vars + slack + art + 1)


class Tracer:
    """Span recorder plus deterministic counters for one traced pass.

    With ``count_pivots`` the wrapped ``lp.solve`` passes a
    :class:`PivotCounter` as its dump stream and records each program's
    shape. The dump formats tableaux, so such a pass is used for counting
    only, never for timing.
    """

    def __init__(self, count_pivots: bool = False):
        self.count_pivots = count_pivots
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if layer == "rules":
                self.counters["rules.calls"] += 1
            elif name in _ORACLE_SPAN_NAMES:
                self.counters["oracles.calls"] += 1
                if result.value.is_unbounded:
                    self.counters["oracles.unbounded"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_solve(self, solve: Callable) -> Callable:
        c = self.counters

        def traced(prog, **kwargs):
            counter = None
            if self.count_pivots:
                counter = kwargs["dump"] = PivotCounter()
            span = self._open("lp.solve")
            try:
                return solve(prog, **kwargs)
            finally:
                self._close(span)
                c["lp.solves"] += 1
                if counter is not None:
                    c["lp.rows"] += prog.n_rows
                    c["lp.cols"] += prog.n_vars
                    c["lp.tableau_bytes.max"] = max(
                        c["lp.tableau_bytes.max"], tableau_bytes(prog)
                    )
                    c["lp.pivots.p1"] += counter.pivots[0]
                    c["lp.pivots.p2"] += counter.pivots[1]

        traced.__wrapped__ = solve
        return traced

    @contextmanager
    def installed(self):
        """Replace the library's entry points with traced wrappers."""
        from distortion_lab import cli, instances, lp, oracles, rules

        entry_points = [(cli, "main"), (instances, "random_profile"), (lp, "solve")]
        entry_points += [(oracles, n) for n in ORACLE_ENTRY_POINTS + ORACLE_WRAPPERS]
        entry_points += [(rules, n) for n in RULE_ENTRY_POINTS]
        saved = [(mod, n, getattr(mod, n)) for mod, n in entry_points]
        for mod, n, fn in saved:
            layer = mod.__name__.rsplit(".", 1)[1]
            setattr(mod, n, self.wrap_solve(fn) if mod is lp else self.wrap(f"{layer}.{n}", fn))
        # A dump stream formats whole tableaux; summarised arrays keep that
        # cost small in the counting passes.
        options = np.printoptions(threshold=0, edgeitems=1) if self.count_pivots else nullcontext()
        try:
            with options:
                yield self
        finally:
            for mod, n, original in saved:
                setattr(mod, n, original)



def self_times(spans: Iterable[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


def layer_self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Summed self time per layer (the span-name prefix before the first dot)."""
    spans = list(spans)
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
