"""In-memory spans around the public stochavg callables, for traced runs.

A ``Tracer`` keeps one record per call: name, start, end, parent span and run
id.  ``installed(tracer, targets)`` swaps each target callable for a wrapper
that records a span (plus any counts the target derives from its arguments
and result) and restores every original on exit, also when a wrapped call
raises.  Nothing here runs unless a traced run asks for it, so untraced runs
execute the program untouched.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class Target:
    """One callable to wrap: ``getattr(owner, attr)``, recorded as ``name``.

    ``counts(args, result)`` returns counters to add under the span name, where
    ``args`` maps parameter names to the call's bound arguments.  With
    ``keep`` the tracer also stores (args, result) of every call, for checks
    and replays made after the traced operation.
    """

    owner: object
    attr: str
    name: str
    counts: Optional[Callable] = None
    keep: bool = False


class Tracer:
    """Span and counter store for one traced run.

    Spans opened on a worker thread with no open span of their own take the
    innermost open span of the thread that created the tracer as parent, so
    work fanned out to a thread pool still nests under its caller.
    """

    def __init__(self, run_id):
        self.spans = []
        self.counts = {}
        self.kept = {}
        self.run_id = run_id
        self._next_id = 0
        self._lock = threading.Lock()
        self._owner_thread = threading.get_ident()
        self._owner_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._owner_thread:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def add(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def keep(self, name, args, result):
        with self._lock:
            self.kept.setdefault(name, []).append((args, result))

    def write(self, path):
        """Write every span as one JSON line, then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run_id}) + "\n")
            fh.write(json.dumps({"counts": self.counts}, sort_keys=True) + "\n")


def _wrap(tracer, target, original):
    sig = inspect.signature(original)
    needs_args = target.counts is not None or target.keep

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(target.name):
            result = original(*args, **kwargs)
        if needs_args:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if target.counts is not None:
                for key, value in target.counts(bound.arguments, result).items():
                    tracer.add(f"{target.name}.{key}", value)
            if target.keep:
                tracer.keep(target.name, dict(bound.arguments), result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer, targets, package="stochavg"):
    """Wrap every target for the duration of the block.

    A module-level function is also replaced wherever a module of
    ``package`` imported it by name (``from .config import parse_system_text``),
    so calls through those names are recorded too.  Every replaced binding is
    restored in reverse order on exit.
    """
    replaced = []
    try:
        for target in targets:
            original = inspect.getattr_static(target.owner, target.attr)
            wrapper = _wrap(tracer, target, getattr(target.owner, target.attr))
            setattr(target.owner, target.attr, wrapper)
            replaced.append((target.owner, target.attr, original))
            if inspect.isclass(target.owner):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is target.owner or mod is None:
                    continue
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> its duration minus the part its children cover.

    Children that overlap each other (threads) are counted once, as the
    union of their intervals clipped to the parent.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def total_time(spans, name):
    """Inclusive time of the named spans, counting nested same-name calls once."""
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        if p is None:
            total += s.duration
    return total


def self_time(spans, name, selfs=None):
    """Summed self time of the named spans."""
    selfs = self_times(spans) if selfs is None else selfs
    return sum((selfs[s.sid] for s in spans if s.name == name), 0.0)


def call_count(spans, name):
    return sum(1 for s in spans if s.name == name)
