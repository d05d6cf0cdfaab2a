"""In-memory span tracer for the public functions of chosen modules.

``Tracer.installed`` replaces every public function of each traced
module with a wrapper that records a span: its name, start, end, the
span it was called from and the run it belongs to.  The replacement is
made in the defining module and in every other module that bound the
function under its own name (``from .wiener import evaluate``), because
calls through such a name never look the function up in its home module.
Leaving the context restores the originals; no file of the traced
package changes.

Spans stay in memory until the caller writes them out with ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float
    error: str | None = None
    counts: dict | None = None


class Tracer:
    """Collects spans of wrapped calls.

    ``clock`` is the time source; ``counters`` maps a span name to
    ``fn(args, kwargs, result) -> {counter: value}``, evaluated after a
    call returns, outside the span's interval and off the span stack.
    """

    def __init__(self, clock=time.perf_counter, counters=None):
        self.clock = clock
        self.counters = counters or {}
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name, fn):
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self.run, name, start, end,
                                       error=type(exc).__name__))
                raise
            end = self.clock()
            self._stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            self.spans.append(Span(sid, parent, self.run, name, start, end, counts=counts))
            return result

        return traced

    @contextmanager
    def installed(self, layers: dict, namespace):
        """Trace the public functions of ``layers`` (span prefix -> module)
        wherever a module in ``namespace`` holds them."""
        wrappers = {}
        for prefix, mod in layers.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self.wrap(f"{prefix}.{attr}", fn))
        rebound = []
        for mod in namespace:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    rebound.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in rebound:
                setattr(mod, attr, value)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(vars(s), sort_keys=True) + "\n")


@dataclass
class Stat:
    """Aggregate of the spans of one name within one run."""

    calls: int = 0
    s: float = 0.0          # duration, counting only spans not nested in a same-name span
    self_s: float = 0.0     # duration minus the part covered by child spans
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    children: Counter = field(default_factory=Counter)   # direct child spans by name


def _covered(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in kids.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def ancestors(span: Span, by_id: dict[int, Span]):
    p = span.parent
    while p is not None:
        yield by_id[p]
        p = by_id[p].parent


def summarize(spans: list[Span]) -> dict[str, Stat]:
    """Per-name aggregates of the spans of one run."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    stats: dict[str, Stat] = defaultdict(Stat)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.self_s += own[s.id]
        if not any(a.name == s.name for a in ancestors(s, by_id)):
            st.s += s.end - s.start
        if s.error is not None:
            st.failed += 1
        if s.counts:
            st.counts.update(s.counts)
        if s.parent is not None:
            stats[by_id[s.parent].name].children[s.name] += 1
    return dict(stats)
