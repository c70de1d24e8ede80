"""In-memory span tracing around molcalib's public functions.

The benchmark never edits the program.  It swaps module attributes (and
the few class methods it times) for wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Every molcalib module
that imported the same function by name gets the wrapper too, so calls that
go through a ``from x import y`` alias are seen as well.

Spans live in flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Records nested call spans; one instance per traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.errors: dict[str, int] = {}
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """`fn` with a span recorded around every call; errors counted."""
        nid = self._intern(name)
        clock = self.clock
        stack = self._stack
        name_id, start, end, parent = (self.name_id, self.start, self.end,
                                       self.parent)
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def arrays(self) -> "SpanArrays":
        return SpanArrays(self.names, np.asarray(self.name_id, dtype=np.int64),
                          np.asarray(self.start), np.asarray(self.end),
                          np.asarray(self.parent, dtype=np.int64))

    def save(self, path: str) -> None:
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(spans.names),
                            name_id=spans.name_id, start=spans.start,
                            end=spans.end, parent=spans.parent)


class SpanArrays:
    """Column view of recorded spans with the arithmetic the report needs.

    Spans are appended when they open, so every parent index is smaller
    than its children's.
    """

    def __init__(self, names, name_id, start, end, parent) -> None:
        self.names = list(names)
        self.name_id = name_id
        self.start = start
        self.end = end
        self.parent = parent
        self.duration = end - start

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def child_time(self, child_mask: np.ndarray | None = None) -> np.ndarray:
        """Per span, the time its direct children (optionally only those
        selected by `child_mask`) cover.  Children of one thread never
        overlap, so covered time is the sum of their durations."""
        has_parent = self.parent >= 0
        if child_mask is not None:
            has_parent &= child_mask
        return np.bincount(self.parent[has_parent],
                           weights=self.duration[has_parent],
                           minlength=len(self))

    def self_time(self, child_mask: np.ndarray | None = None) -> np.ndarray:
        return self.duration - self.child_time(child_mask)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, *names: str) -> float:
        return float(self.duration[self.mask(*names)].sum())

    def under(self, *names: str) -> np.ndarray:
        """True for spans that are, or lie inside, a span named in `names`."""
        flag = self.mask(*names)
        has_parent = self.parent >= 0
        while True:
            inherited = flag.copy()
            inherited[has_parent] |= flag[self.parent[has_parent]]
            if np.array_equal(inherited, flag):
                return flag
            flag = inherited

    def root_time(self) -> float:
        return float(self.duration[self.parent < 0].sum())


def _molcalib_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "molcalib"
                                  or name.startswith("molcalib."))]


class Patch:
    """Swaps functions for wrappers and puts the originals back on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make_wrapper) -> bool:
        """Wrap `module.attr` and every molcalib alias bound to it.

        Returns False, changing nothing, when the module lacks `attr`.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod in _molcalib_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
        return True

    def method(self, cls, attr: str, make_wrapper) -> bool:
        if cls is None or attr not in vars(cls):
            return False
        self._set(cls, attr, make_wrapper(vars(cls)[attr]))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class ReturnTimer:
    """Intervals between successive returns of one function.

    `new_series` forgets the last return, so the gap before the next one
    (model set-up, a new file) never counts as an interval.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.intervals: list[float] = []
        self._last: float | None = None

    def new_series(self) -> None:
        self._last = None

    def wrap(self, fn):
        clock = self.clock
        intervals = self.intervals

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = clock()
            if self._last is not None:
                intervals.append(now - self._last)
            self._last = now
            return result

        return timed
