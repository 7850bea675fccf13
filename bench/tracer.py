"""Span tracer that wraps library entry points from outside the library.

`Tracer.install` replaces a function or method on its owner (a module or a
class) with a wrapper that records one span per call, and `uninstall` puts
the original objects back, so a run without tracing measures unmodified
code.  A span is the list

    [name, start, end, parent, op, work]

where `parent` is the index of the enclosing span in `Tracer.spans` (-1 at
top level), `op` is the benchmark op id current when the span opened, and
`work` is a size computed from the call's inputs (0 when none is defined).
Everything runs in the calling thread; spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def spanned(self, fn, name: str, work=None):
        """Wrap `fn` so each call records a span named `name`.

        `work(arguments, result)` gets the call's bound arguments by
        parameter name and returns the work count stored in the span.
        """
        spans, stack, clock, tracer = self.spans, self._stack, self.clock, self
        bind = inspect.signature(fn).bind if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if bind is not None:
                rec[WORK] = work(bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        """Wrap `fn` so each call only increments `counters[key]`."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, owner, attr: str, wrap) -> None:
        """Replace `owner.attr` by `wrap(original)`.

        The attribute is looked up in the owner's own namespace, so a method
        wrapped on its class also covers calls made from other methods, and
        classmethods and staticmethods keep their descriptor type.  A target
        the owner does not define is recorded in `missing` and skipped.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(wrap(raw.__func__))
        else:
            new = wrap(raw)
        setattr(owner, attr, new)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every replaced attribute to the exact original object."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


# -- analysis -------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so the children of a span
    never overlap and their summed durations are exactly the part of the
    parent's interval that they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_totals(spans: list[list], scale: dict[int, float]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, call count and work.

    Only spans of the ops in `scale` count, and each self time is multiplied
    by its op's factor there (1.0 keeps wall seconds).
    """
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for s, t in zip(spans, selfs):
        factor = scale.get(s[OP])
        if factor is None:
            continue
        agg = totals.setdefault(s[NAME], {"self_s": 0.0, "calls": 0, "work": 0})
        agg["self_s"] += t * factor
        agg["calls"] += 1
        agg["work"] += s[WORK]
    return totals


def child_calls(spans: list[list], parent_name: str, child_name: str, ops) -> int:
    """Number of `child_name` spans directly under a `parent_name` span."""
    ops = set(ops)
    return sum(1 for s in spans
               if s[NAME] == child_name and s[OP] in ops and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == parent_name)


def top_level_time(spans: list[list], op: int) -> float:
    """Summed duration of the top-level spans recorded under one op."""
    return sum(s[END] - s[START] for s in spans
               if s[OP] == op and s[PARENT] == -1)
