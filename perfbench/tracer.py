"""In-memory span recorder that times library layers from the outside.

The library has no spans of its own yet, so the traced run wraps public
functions and methods of each module in place (``Tracer.install``) and
restores the originals afterwards (``Tracer.uninstall``).  A span is
``(name, start, end, parent)`` with ``parent`` the index of the span
that was open when it started (-1 for none).  A generator function is
timed once per ``next()``, so the consumer's loop body between items is
not charged to it.

Spans live in flat arrays rather than one object per span: hundreds of
thousands of small tracked objects would make every full garbage
collection, and with it the serving batch it lands in, slower.

Self time is a span's duration minus the durations of its direct
children; it is what the per-layer metrics sum.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    def __init__(self):
        self._names: List[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        #: counters keyed by (root span name, counter name)
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.active = False
        self.root = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    @property
    def spans(self) -> List[Tuple[str, float, float, int]]:
        return list(zip(self._names, self._starts, self._ends,
                        self._parents))

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        """A span around a block of benchmark code.

        ``root=True`` marks a timed region: recording is on inside it,
        and counters are keyed by its name.
        """
        if root:
            self.active, self.root = True, name
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            if root:
                self.active, self.root = False, ""

    def count(self, name: str, value: float) -> None:
        self.counters[(self.root, name)] += value

    def in_span(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        return bool(self._stack) and self._names[self._stack[-1]] == name

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              after: Optional[Callable]) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    else:
                        index = tracer._open(name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(index)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nested = tracer.in_span(name)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None and not nested:
                after(tracer, args, kwargs, result)
            return result
        return wrapper

    def install(self, targets: Sequence[tuple]) -> None:
        """Wrap ``(owner, attribute, span name[, after])`` targets.

        ``owner`` is a class or a module; a classmethod stays one.
        ``after(tracer, args, kwargs, result)``
        runs once the span has closed (outside its time), e.g. to count
        the work the call did; it is skipped for a call nested inside a
        span of the same name.
        """
        for target in targets:
            owner, attr, name = target[:3]
            after = target[3] if len(target) > 3 else None
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name,
                                                 after))
            else:
                patched = self._wrap(original, name, after)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call_cost(self, calls: int = 200000) -> float:
        """Extra seconds one wrapped call costs over a bare call.

        Measured on a no-op with recording on, into a scratch tracer so
        this one's spans are untouched.
        """
        def bare():
            return None
        scratch = Tracer()
        wrapped = scratch._wrap(bare, "calibration", None)
        with scratch.span("calibration", root=True):
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            bare()
        return max(traced - (time.perf_counter() - start), 0.0) / calls

    # -- analysis ------------------------------------------------------------

    def wall(self) -> float:
        """Total duration of the root spans (the timed regions)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def self_times(self) -> List[float]:
        """Per-span duration minus the durations of its direct children."""
        spans = self.spans
        own = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        """Dump the spans as columns (plus self times) and the counters."""
        payload = {
            "name": self._names,
            "start": self._starts.tolist(),
            "end": self._ends.tolist(),
            "parent": self._parents.tolist(),
            "self": self.self_times(),
            "counters": {"%s/%s" % key: value
                         for key, value in sorted(self.counters.items())},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
