"""Span recording around the program's public functions, from outside.

Nothing in ``src/`` knows about this module: :class:`Tracer` replaces a
public function at *every* ``repro.*`` module attribute bound to it (so the
attribute each caller resolves is the wrapped one), records one span per
call, and puts the originals back on :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent)`` where ``parent`` indexes the span
open on the same thread when this one began (``-1`` for a root).  Spans
stay in memory until :meth:`Tracer.dump` writes them out at the end of the
run.  A call made while a span of the same name is already open on the
thread (recursion, a facade calling its implementation) is folded into the
outer span instead of opening a second one.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: ``record(counts, args, kwargs, result)`` adds counter increments for one call.
Recorder = Callable[[dict[str, float], tuple, dict, Any], None]

Span = tuple[str, float, float, int]


class Tracer:
    """In-memory span store plus the wrapper installation around it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording                                                            #
    # ------------------------------------------------------------------ #

    def _call(
        self, name: str, fn: Callable, record: Recorder | None, args: tuple, kwargs: dict
    ) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        parent = stack[-1][1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        stack.append((name, idx))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans[idx] = (name, start, end, parent)
        if record is not None:
            delta: dict[str, float] = {}
            record(delta, args, kwargs, result)
            with self._lock:
                for key, value in delta.items():
                    self.counts[key] += value
        return result

    # ------------------------------------------------------------------ #
    # installation                                                         #
    # ------------------------------------------------------------------ #

    def patch_function(
        self, fn: Callable, name: str, record: Recorder | None = None, skip_home: bool = False
    ) -> None:
        """Replace ``fn`` at every ``repro.*`` module attribute bound to it.

        ``skip_home`` leaves the defining module's own binding alone, for
        recursive functions whose inner calls would otherwise each pass
        through the wrapper.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self._call(name, fn, record, args, kwargs)

        home = getattr(fn, "__module__", None)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if skip_home and mod_name == home:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)
                    replaced += 1
        if replaced == 0:
            raise RuntimeError(f"no repro module binds {fn!r}; cannot trace {name}")

    def patch_method(
        self, cls: type, attr: str, name: Callable[[Any], str], record: Recorder | None = None
    ) -> None:
        """Wrap the method ``cls.attr``; ``name(instance)`` names each span."""
        original = getattr(cls, attr)

        @functools.wraps(original)
        def traced(obj: Any, *args: Any, **kwargs: Any) -> Any:
            return self._call(name(obj), original, record, (obj, *args), kwargs)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, traced)

    def uninstall(self) -> None:
        """Put every original back (in reverse patch order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # analysis                                                             #
    # ------------------------------------------------------------------ #

    def mark(self) -> tuple[int, dict[str, float]]:
        """A position to analyse spans and counters from (see :meth:`window`)."""
        with self._lock:
            return len(self.spans), dict(self.counts)

    def window(self, mark: tuple[int, dict[str, float]]) -> "Window":
        """Spans and counter increments recorded since ``mark``."""
        first, counts_before = mark
        with self._lock:
            spans = self.spans[first:]
            counts = {k: v - counts_before.get(k, 0.0) for k, v in self.counts.items()}
        return Window(spans, first, counts)

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span (and ``meta``) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent"],
            "spans": [list(s) for s in self.spans],
        }
        path.write_text(json.dumps(doc))


class Window:
    """Per-name self time, call counts and root coverage of a span slice.

    A span's self time is its duration minus the durations of its direct
    children; ``root_s`` sums the spans with no parent inside the slice,
    i.e. how much wall time the layer spans cover.
    """

    def __init__(self, spans: list[Span], first: int, counts: dict[str, float]) -> None:
        self.counts = counts
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        child_s: dict[int, float] = defaultdict(float)
        for _name, start, end, parent in spans:
            if parent >= first:
                child_s[parent] += end - start
        for offset, (name, start, end, parent) in enumerate(spans):
            self.self_s[name] += (end - start) - child_s.get(first + offset, 0.0)
            self.calls[name] += 1
            if parent < first:
                self.root_s += end - start

    def seconds(self, prefix: str) -> float:
        """Self time summed over every span name equal to or under ``prefix``."""
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))

    def n_calls(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k == prefix or k.startswith(prefix + "."))
